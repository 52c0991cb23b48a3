// Adaptive: demonstrates the paper's central claim (§4.4) that no static
// peer-set size fits all network conditions, while Bullet's adaptive
// sizing tracks the best static choice in each environment.
//
// Two environments are tried: the lossy ModelNet mesh (where MORE peers
// win, because parallel TCP flows mask random loss) and the
// constrained-access topology (where FEWER peers win, because maximizing
// TCP flows fight over an 800 Kbps uplink). Each trial is one experiment
// session run under a shared context, so ctrl-C-style cancellation of the
// whole comparison needs only one cancel call.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"bulletprime"
)

func main() { run(os.Stdout) }

// run writes the peer-set table for both environments to w.
func run(w io.Writer) {
	ctx := context.Background()
	type env struct {
		name    string
		network bulletprime.NetworkPreset
		file    float64
	}
	envs := []env{
		{"lossy mesh (6 Mbps access)", bulletprime.NetworkModelNet, 8 << 20},
		{"constrained access (800 Kbps)", bulletprime.NetworkConstrained, 2 << 20},
	}
	for _, e := range envs {
		fmt.Fprintf(w, "\n=== %s ===\n", e.name)
		fmt.Fprintf(w, "%-28s %10s %10s\n", "peer-set policy", "median(s)", "worst(s)")
		for _, static := range []int{6, 14, 0} {
			label := fmt.Sprintf("static %d senders/receivers", static)
			if static == 0 {
				label = "adaptive (ManageSenders)"
			}
			exp, err := bulletprime.New(bulletprime.RunConfig{
				Protocol:    bulletprime.ProtocolBulletPrime,
				Nodes:       30,
				FileBytes:   e.file,
				Network:     e.network,
				StaticPeers: static,
				Seed:        11,
				Deadline:    7200,
			})
			if err != nil {
				log.Fatal(err)
			}
			res, err := exp.Run(ctx)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(w, "%-28s %10.1f %10.1f\n", label, res.Median(), res.Worst())
		}
	}
	fmt.Fprintln(w, "\nThe adaptive policy should track the better static choice in BOTH")
	fmt.Fprintln(w, "environments — no single static size does (paper §4.4, Figures 7-9).")
}
