// Quickstart: distribute a 5 MB file from one source to 19 receivers over
// the paper's emulated ModelNet environment with Bullet', watching live
// progress through the session API, and print the completion-time spread.
//
//	go run ./examples/quickstart
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

// run writes the distribution's progress and spread to w.
func run(w io.Writer) {
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Protocol:  bulletprime.ProtocolBulletPrime,
		Nodes:     20,
		FileBytes: 5 << 20, // 5 MB
		Network:   bulletprime.NetworkModelNet,
		Seed:      1,
		// Sample every 5 virtual seconds: the observer's lines and the
		// kept time-series are the same samples.
		SampleEvery: 5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Subscribe before Run; the stream closes when the run ends.
	obs, err := exp.Subscribe()
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range obs.Samples() {
			fmt.Fprintf(w, "  t=%4.0fs  %2d/%d receivers done, %6.2f Mbps aggregate goodput\n",
				s.Time, s.Completed, s.Receivers, s.GoodputBps*8/1e6)
		}
	}()

	res, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	<-done
	if !res.Finished {
		log.Fatal("distribution did not finish before the deadline")
	}
	fmt.Fprintf(w, "Bullet' distributed 5 MB to %d receivers\n", len(res.CompletionTimes))
	fmt.Fprintf(w, "  fastest node : %6.1f s\n", res.Best())
	fmt.Fprintf(w, "  median node  : %6.1f s\n", res.Median())
	fmt.Fprintf(w, "  slowest node : %6.1f s\n", res.Worst())
	fmt.Fprintf(w, "  control overhead: %.2f%% of delivered bytes\n", res.ControlOverhead*100)
	fmt.Fprintf(w, "  time-series: %d samples in res.Series\n", len(res.Series))
}
