// Livestream: Bullet' as a live-streaming transport (DESIGN.md §11). A
// source emits a 1 Mbps stream for two virtual minutes while a flash crowd
// joins mid-broadcast: 60% of the overlay watches from the start, the rest
// piles in at t=30s and has to catch up to its own live edge through the
// mesh. Bullet' and Bullet run on the identical topology and scenario
// draws, and each prints the viewer experience: lag quantiles, startup
// delay, and rebuffer counts from the playout-buffer model.
//
//	go run ./examples/livestream
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

// run writes the viewer report of each protocol's broadcast to w.
func run(w io.Writer) {
	const (
		nodes    = 24
		seed     = 7
		bitrate  = 1e6 / 8 // 1 Mbps in bytes/s
		duration = 120.0
	)
	// The crowd joins a broadcast already in progress; wave viewers measure
	// lag against their own join time.
	crowd := scenario.LiveFlashCrowd(30, 0.4)

	ctx := context.Background()
	for _, p := range []bulletprime.Protocol{bulletprime.ProtocolBulletPrime, bulletprime.ProtocolBullet} {
		exp, err := bulletprime.New(bulletprime.RunConfig{
			Protocol: p,
			Nodes:    nodes,
			Network:  bulletprime.NetworkModelNet,
			Scenario: crowd,
			Seed:     seed,
			Stream:   &bulletprime.StreamOptions{BitrateBps: bitrate, Duration: duration},
			// One sample every 20 virtual seconds, the closing one included.
			SampleEvery: 20,
		})
		if err != nil {
			log.Fatal(err)
		}
		obs, err := exp.Subscribe()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "== %s: 1 Mbps live stream, flash crowd at t=30s ==\n", p)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for s := range obs.Samples() {
				fmt.Fprintf(w, "  t=%5.1fs  lag p50 %5.2fs max %5.2fs  %d rebuffering (%d events)\n",
					s.Time, s.StreamLagP50, s.StreamLagMax, s.Rebuffering, s.RebufferEvents)
			}
		}()
		res, err := exp.Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		<-done
		rep := res.Stream
		fmt.Fprintf(w, "  viewers: %d live / %d total; startup p50 %.2fs\n",
			rep.Live, rep.Live+rep.Dead, rep.StartupP50)
		fmt.Fprintf(w, "  lag: p50 %.2fs  p90 %.2fs  max %.2fs (peak %.2fs)\n",
			rep.LagP50, rep.LagP90, rep.LagMax, rep.PeakLagMax)
		fmt.Fprintf(w, "  rebuffers: %d (%.1fs total stall)  goodput %.2f / target %.2f Mbps\n\n",
			rep.Rebuffers, rep.StallS, rep.GoodputBps*8/1e6, rep.TargetBps*8/1e6)
	}
}
