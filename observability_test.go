package bulletprime_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"bulletprime"
)

// TestObserverDropOldestStalledReader pins the slow-consumer policy: a
// consumer that never reads while the run executes must not stall the
// simulation, and when it finally drains it finds exactly the newest 64
// samples of the run — drop-oldest, with Dropped() counting the losses.
func TestObserverDropOldestStalledReader(t *testing.T) {
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Nodes:       10,
		FileBytes:   1e6,
		Seed:        3,
		Deadline:    3600,
		SampleEvery: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := exp.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	// No consumer runs until the experiment is over: the reader is stalled
	// for the entire run.
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var kept []bulletprime.Sample
	for s := range o.Samples() {
		kept = append(kept, s)
	}
	const buffer = 64
	n := len(res.Series)
	if n <= buffer {
		t.Fatalf("the run took %d samples; the test needs more than the %d-sample buffer", n, buffer)
	}
	if !reflect.DeepEqual(kept, res.Series[n-buffer:]) {
		t.Fatalf("stalled reader drained %d samples (t=%.2f..%.2f), want the newest %d of the series (t=%.2f..%.2f)",
			len(kept), kept[0].Time, kept[len(kept)-1].Time, buffer, res.Series[n-buffer].Time, res.Series[n-1].Time)
	}
	if got := o.Dropped(); got != int64(n-buffer) {
		t.Fatalf("Dropped() = %d, want %d", got, n-buffer)
	}
}

// TestObserversReceiveTheSeries pins the one sample stream: every observer
// of a session, sequential or sharded, receives in order exactly the
// samples of Result.Series, closing sample included.
func TestObserversReceiveTheSeries(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  bulletprime.RunConfig
	}{
		{"sequential", bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1, DynamicBandwidth: true}},
		{"sharded", shardedCfg(5, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.SampleEvery = 2
			exp, err := bulletprime.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			streams := make([]chan []bulletprime.Sample, 2)
			for i := range streams {
				o, err := exp.Subscribe()
				if err != nil {
					t.Fatal(err)
				}
				streams[i] = make(chan []bulletprime.Sample, 1)
				go func(out chan<- []bulletprime.Sample) {
					var got []bulletprime.Sample
					for s := range o.Samples() {
						got = append(got, s)
					}
					out <- got
				}(streams[i])
			}
			res, err := exp.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Series) < 2 {
				t.Fatalf("the run took %d samples; the test needs a series", len(res.Series))
			}
			for i, ch := range streams {
				if got := <-ch; !reflect.DeepEqual(got, res.Series) {
					t.Fatalf("observer %d received %d samples, the series holds %d, or they differ", i, len(got), len(res.Series))
				}
			}
		})
	}
}

// TestObserverCtxCancelTeardown cancels a run mid-flight and checks
// observer teardown: every Samples() channel closes exactly once (a double
// close would panic here) and the session still reports its partial result.
// The CI race job runs the whole test file under -race, which would flag a
// send-on-closed or close-vs-send race in the teardown path.
func TestObserverCtxCancelTeardown(t *testing.T) {
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Nodes:       60,
		FileBytes:   20e6,
		Seed:        5,
		Deadline:    3600,
		SampleEvery: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two observers, so teardown closes more than one stream.
	first, err := exp.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	second, err := exp.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drained := make(chan int, 2)
	go func() {
		n := 0
		for range first.Samples() {
			if n == 0 {
				cancel() // first sample: the run is mid-flight, stop it
			}
			n++
		}
		drained <- n
	}()
	go func() {
		n := 0
		for range second.Samples() {
			n++
		}
		drained <- n
	}()
	res, err := exp.Run(ctx)
	if err != nil && res == nil {
		t.Fatal(err)
	}
	<-drained
	<-drained // both ranges ended: both channels closed
	if !res.Cancelled {
		t.Fatal("mid-run cancel did not mark the result cancelled")
	}
	if len(res.CompletionTimes) == 59 {
		t.Fatal("cancelled run reports a full completion set; cancel landed after the end")
	}
}

// TestTestbedObserverGauges streams samples from a real-socket loopback run
// and checks the transport gauges ride along: measured RTT, and — with
// injected loss — retransmit and drop counters.
func TestTestbedObserverGauges(t *testing.T) {
	cfg := testbedCfg()
	cfg.Testbed.DropProb = 0.05
	cfg.Testbed.DropSeed = 9
	cfg.SampleEvery = 5
	exp, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := exp.Subscribe()
	if err != nil {
		t.Fatalf("Subscribe on a testbed session: %v", err)
	}
	var streamed []bulletprime.Sample
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range o.Samples() {
			streamed = append(streamed, s)
		}
	}()
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if !res.Finished {
		t.Fatal("observed testbed run did not finish")
	}
	if len(streamed) == 0 {
		t.Fatal("testbed observer received no samples")
	}
	if len(res.Series) == 0 {
		t.Fatal("observed testbed run recorded no time-series")
	}
	sawRTT := false
	for _, s := range res.Series {
		if s.TestbedRTTp50 > 0 {
			sawRTT = true
			if s.TestbedRTTMax < s.TestbedRTTp50 {
				t.Fatalf("RTT max %.4f below p50 %.4f", s.TestbedRTTMax, s.TestbedRTTp50)
			}
		}
	}
	if !sawRTT {
		t.Fatal("no sample carried a measured RTT")
	}
	tail := res.Series[len(res.Series)-1]
	if tail.TestbedInjectedDrops == 0 {
		t.Fatal("5% injected loss produced no InjectedDrops gauge")
	}
	if tail.TestbedRetransmits == 0 {
		t.Fatal("injected loss produced no retransmissions")
	}
	if tail.DataBytes <= 0 {
		t.Fatalf("final sample DataBytes = %v, want real delivered bytes", tail.DataBytes)
	}
}

// TestTraceReportSequential runs one traced session and checks the report
// shape — and that tracing is observation only: the traced run's results
// are bit-identical to the untraced run of the same config.
func TestTraceReportSequential(t *testing.T) {
	cfg := bulletprime.RunConfig{
		Nodes:     10,
		FileBytes: 1e6,
		Seed:      3,
		Deadline:  3600,
	}
	untraced, err := bulletprime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if untraced.Trace != nil {
		t.Fatal("untraced run carries a trace report")
	}

	traced := cfg
	traced.Trace = &bulletprime.TraceOptions{}
	res, err := bulletprime.Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Trace
	if rep == nil {
		t.Fatal("traced run returned no trace report")
	}
	if len(rep.Spans) == 0 || rep.Counts["promote"] == 0 {
		t.Fatalf("trace: %d spans, counts %v; want promote spans", len(rep.Spans), rep.Counts)
	}
	last := -1.0
	for _, s := range rep.Spans {
		if s.At < last {
			t.Fatalf("spans out of time order: %.4f after %.4f", s.At, last)
		}
		last = s.At
	}
	for id, at := range untraced.CompletionTimes {
		if bt := res.CompletionTimes[id]; bt != at {
			t.Fatalf("node %d: traced %v vs untraced %v (tracing steered the run)", id, bt, at)
		}
	}
	if res.Elapsed != untraced.Elapsed {
		t.Fatalf("Elapsed differs traced vs untraced: %v vs %v", res.Elapsed, untraced.Elapsed)
	}
}

// TestTraceShardedDeterministic pins the cross-shard trace merge: the span
// sequence of a traced sharded run is a pure function of (seed, shards),
// identical between the serial oracle and parallel workers.
func TestTraceShardedDeterministic(t *testing.T) {
	run := func(workers int) *bulletprime.TraceReport {
		cfg := shardedCfg(11, workers)
		cfg.Trace = &bulletprime.TraceOptions{}
		res, err := bulletprime.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil || len(res.Trace.Spans) == 0 {
			t.Fatal("traced sharded run returned no spans")
		}
		return res.Trace
	}
	serial, parallel := run(1), run(0)
	if len(serial.Spans) != len(parallel.Spans) {
		t.Fatalf("span counts differ: serial %d vs parallel %d", len(serial.Spans), len(parallel.Spans))
	}
	for i := range serial.Spans {
		if serial.Spans[i] != parallel.Spans[i] {
			t.Fatalf("span %d differs: serial %+v vs parallel %+v (merge not deterministic)",
				i, serial.Spans[i], parallel.Spans[i])
		}
	}
	if serial.Dropped != parallel.Dropped {
		t.Fatalf("Dropped differs: %d vs %d", serial.Dropped, parallel.Dropped)
	}
}

func TestTraceOptionValidation(t *testing.T) {
	cfg := bulletprime.RunConfig{Nodes: 10, FileBytes: 1e6, Trace: &bulletprime.TraceOptions{Capacity: -1}}
	if _, err := bulletprime.New(cfg); err == nil || !strings.Contains(err.Error(), "Trace") {
		t.Fatalf("negative trace capacity: error %v, want a Trace validation error", err)
	}
}
