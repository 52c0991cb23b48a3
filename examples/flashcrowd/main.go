// Flashcrowd: the paper's headline comparison in miniature, driven by the
// declarative scenario engine through the session API. A popular file
// appears at one origin and the crowd arrives in two waves — half the
// nodes immediately, the rest 60 s later — while a DSL-shaped bandwidth
// trace replays over part of the core and a slice of the crowd churns away
// mid-download. The same emulated network (identical topology seed) is
// used for all four systems, and each run's scenario events come back as
// timestamped annotations on the result.
//
//	go run ./examples/flashcrowd
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"bulletprime"
	"bulletprime/internal/scenario"
)

func main() { run(os.Stdout) }

// run writes every system's table, calm and under the crowd, to w.
func run(w io.Writer) {
	const (
		nodes = 30
		file  = 10 << 20 // 10 MB
		seed  = 7
	)
	protocols := []bulletprime.Protocol{
		bulletprime.ProtocolBulletPrime,
		bulletprime.ProtocolBullet,
		bulletprime.ProtocolBitTorrent,
		bulletprime.ProtocolSplitStream,
	}

	// The crowd scenario: two session waves, a looping congestion trace on
	// six receivers' inbound links, and 10% churn with 90 s mean lifetimes.
	// The same description could live in a JSON file and load via
	// bulletprime.LoadScenario; see DESIGN.md §5.
	crowd := scenario.New("flash-crowd",
		scenario.FlashCrowd(
			scenario.Wave{At: 0, Frac: 0.5},
			scenario.Wave{At: 60},
		),
		scenario.TraceReplay(10,
			scenario.LinkSet{Frac: 0.2, Dir: "in"},
			&scenario.Trace{
				Times:    []float64{0, 20, 35, 60},
				Values:   []float64{2000, 900, 600, 1400},
				Duration: 80,
			}, true),
		scenario.Churn(15, 0.1, scenario.Dist{Kind: "exp", Mean: 90}),
	)

	ctx := context.Background()
	for _, dynamic := range []bool{false, true} {
		label := "calm network (random losses only)"
		sc := (*bulletprime.Scenario)(nil)
		if dynamic {
			label = "flash-crowd scenario (waves + trace replay + churn)"
			sc = crowd
		}
		fmt.Fprintf(w, "\n=== flash crowd, %d nodes, 10 MB, %s ===\n", nodes, label)
		fmt.Fprintf(w, "%-14s %10s %10s %10s %12s\n", "system", "median(s)", "p90(s)", "worst(s)", "completions")
		var annotated *bulletprime.Result
		for _, p := range protocols {
			exp, err := bulletprime.New(bulletprime.RunConfig{
				Protocol:  p,
				Nodes:     nodes,
				FileBytes: file,
				Network:   bulletprime.NetworkModelNet,
				Scenario:  sc,
				Seed:      seed,
				Deadline:  7200,
			})
			if err != nil {
				log.Fatal(err)
			}
			res, err := exp.Run(ctx)
			if err != nil {
				log.Fatal(err)
			}
			status := ""
			if !res.Finished {
				status = "  (INCOMPLETE)"
			}
			fmt.Fprintf(w, "%-14s %10.1f %10.1f %10.1f %12d%s\n",
				p, res.Median(), res.Quantile(0.9), res.Worst(), len(res.CompletionTimes), status)
			if p == bulletprime.ProtocolBulletPrime {
				annotated = res
			}
		}
		if dynamic && annotated != nil {
			fmt.Fprintf(w, "\nscenario timeline as observed by the Bullet' run (%d events):\n",
				len(annotated.Annotations))
			for i, a := range annotated.Annotations {
				if i == 6 {
					fmt.Fprintf(w, "  ... %d more\n", len(annotated.Annotations)-i)
					break
				}
				fmt.Fprintf(w, "  t=%6.1fs  %s\n", a.At, a.Text)
			}
		}
	}
	fmt.Fprintln(w, "\nNote: under the scenario, churned nodes never finish (the run reports")
	fmt.Fprintln(w, "INCOMPLETE) and wave-1 nodes cannot complete before t=60. Lint any")
	fmt.Fprintln(w, "scenario file with: go run ./cmd/bulletctl scenario lint -nodes 30 file.json")
	fmt.Fprintln(w, "Reproduce the paper's figures with: go run ./cmd/bulletctl -figure 4 -scale 1")
}
