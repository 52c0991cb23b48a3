// Compare: the experiment archive's A/B workflow end to end. Bullet' and
// BitTorrent distribute the same 5 MB file over the same emulated network
// under the same dynamic-bandwidth scenario (identical topology and
// scenario draws per seed), every completed run is recorded into a
// persistent archive keyed by its content hash, and the archived run sets
// are diffed into a paper-style comparison report — quantile deltas,
// seed-paired medians, and the two download-time CDFs plotted together.
//
// Because the archive dedupes identical (config, scenario, seed, version)
// runs, re-running this example against a kept archive directory reuses
// the recorded results instead of repeating them.
//
//	go run ./examples/compare
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"bulletprime"
	"bulletprime/internal/scenario"
)

func main() {
	dir := filepath.Join(os.TempDir(), "bulletprime-compare-archive")
	fmt.Printf("archive: %s\n", dir)
	run(os.Stdout, dir)
}

// run archives both protocols' runs in dir and writes their comparison to w.
func run(w io.Writer, dir string) {
	arch, err := bulletprime.OpenArchive(dir)
	if err != nil {
		log.Fatal(err)
	}

	// One shared scenario: 20 s in, a looping congestion trace squeezes a
	// fifth of the receivers' inbound links, and at 60 s a tenth of the
	// nodes churn away.
	rush := scenario.New("rush-hour",
		scenario.TraceReplay(20,
			scenario.LinkSet{Frac: 0.2, Dir: "in"},
			&scenario.Trace{
				Times:    []float64{0, 15, 40},
				Values:   []float64{1500, 700, 1100},
				Duration: 60,
			}, true),
		scenario.Churn(60, 0.1, scenario.Dist{Kind: "exp", Mean: 120}),
	)

	// Two protocols × three seeds under identical conditions, every
	// completed run recorded as it finishes.
	for _, p := range []bulletprime.Protocol{
		bulletprime.ProtocolBulletPrime,
		bulletprime.ProtocolBitTorrent,
	} {
		for seed := int64(1); seed <= 3; seed++ {
			exp, err := bulletprime.New(bulletprime.RunConfig{
				Protocol:  p,
				Nodes:     20,
				FileBytes: 5 << 20,
				Network:   bulletprime.NetworkModelNet,
				Scenario:  rush,
				Seed:      seed,
				Archive:   arch, // auto-record on completion
			})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := exp.Run(context.Background()); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(w, "  recorded %s seed %d as %s\n", p, seed, exp.RunID())
		}
	}

	// Query both run sets back from disk and diff them.
	prime, err := arch.Select(bulletprime.ArchiveFilter{Protocol: "bulletprime", Scenario: "rush-hour"})
	if err != nil {
		log.Fatal(err)
	}
	torrent, err := arch.Select(bulletprime.ArchiveFilter{Protocol: "bittorrent", Scenario: "rush-hour"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, bulletprime.CompareArchived("bulletprime", prime, "bittorrent", torrent).Report())
}
