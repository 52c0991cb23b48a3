package bulletprime_test

import (
	"strings"
	"testing"

	"bulletprime"
)

// shardedCfg is the façade sharded-run fixture: 4 clusters of 25 on the
// clustered preset, running the scalefill reference workload.
func shardedCfg(seed int64, workers int) bulletprime.RunConfig {
	return bulletprime.RunConfig{
		Protocol:     bulletprime.ProtocolScalefill,
		Nodes:        100,
		FileBytes:    1.5e6,
		Network:      bulletprime.NetworkClustered,
		Seed:         seed,
		Deadline:     60,
		Engine:       bulletprime.EngineSharded,
		Shards:       4,
		ShardWorkers: workers,
	}
}

func TestShardedRunThroughFacade(t *testing.T) {
	res, err := bulletprime.Run(shardedCfg(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("sharded run did not finish")
	}
	if len(res.CompletionTimes) != 100 {
		t.Fatalf("%d completion times, want 100 (every node pulls)", len(res.CompletionTimes))
	}
}

// TestShardedFacadeWorkerEquivalence pins the façade path end to end: the
// cooperative single-goroutine oracle (ShardWorkers=1) and the parallel
// mode must return bit-identical results.
func TestShardedFacadeWorkerEquivalence(t *testing.T) {
	serial, err := bulletprime.Run(shardedCfg(11, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := bulletprime.Run(shardedCfg(11, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.CompletionTimes) != len(parallel.CompletionTimes) {
		t.Fatalf("completion counts differ: %d vs %d",
			len(serial.CompletionTimes), len(parallel.CompletionTimes))
	}
	for id, at := range serial.CompletionTimes {
		if bt := parallel.CompletionTimes[id]; bt != at {
			t.Fatalf("node %d: %v vs %v (not bit-identical)", id, at, bt)
		}
	}
	if serial.Elapsed != parallel.Elapsed {
		t.Fatalf("Elapsed differs: %v vs %v", serial.Elapsed, parallel.Elapsed)
	}
}

func TestShardedCompactNetworkPreset(t *testing.T) {
	cfg := shardedCfg(3, 0)
	cfg.Network = bulletprime.NetworkClusteredCompact
	res, err := bulletprime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || len(res.CompletionTimes) != 100 {
		t.Fatalf("compact sharded run: finished=%v completions=%d",
			res.Finished, len(res.CompletionTimes))
	}
}

func TestShardedConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*bulletprime.RunConfig)
		want string
	}{
		{"scenario", func(c *bulletprime.RunConfig) {
			c.Scenario = &bulletprime.Scenario{Name: "x"}
		}, "scenario"},
		{"dynamic bandwidth", func(c *bulletprime.RunConfig) {
			c.DynamicBandwidth = true
		}, "DynamicBandwidth"},
		{"sequential-only protocol", func(c *bulletprime.RunConfig) {
			c.Protocol = bulletprime.ProtocolBulletPrime
		}, "not registered for sharded"},
	}
	for _, tc := range cases {
		cfg := shardedCfg(1, 0)
		tc.mut(&cfg)
		if _, err := bulletprime.New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Shard knobs without the sharded engine are a misconfiguration, not a
	// silent no-op.
	cfg := bulletprime.RunConfig{Nodes: 10, FileBytes: 1e6, Shards: 4}
	if _, err := bulletprime.New(cfg); err == nil || !strings.Contains(err.Error(), "EngineSharded") {
		t.Errorf("Shards without sharded engine: error %v", err)
	}
}

// TestShardedObserverEquivalence pins the sharded observability contract at
// Scale1000: an observed sharded session — time-series sampling on, an
// observer subscribed — must return results bit-identical to the unobserved
// one-shot wrapper, because horizon-stepped sampling re-partitions the
// lockstep windows without reordering any event. The CI race job runs
// this test by name.
func TestShardedObserverEquivalence(t *testing.T) {
	cfg := shardedCfg(5, 0)
	cfg.Nodes = 1000
	cfg.Deadline = 120

	oracle, err := bulletprime.Run(cfg) // unobserved, single Group.Run
	if err != nil {
		t.Fatal(err)
	}

	obsCfg := cfg
	obsCfg.SampleEvery = 2
	exp, err := bulletprime.New(obsCfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := exp.Subscribe()
	if err != nil {
		t.Fatalf("Subscribe on a sharded session: %v", err)
	}
	var streamed int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range o.Samples() {
			streamed++
		}
	}()
	observed, err := exp.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if streamed == 0 {
		t.Fatal("observer received no samples from the sharded run")
	}
	if len(observed.Series) == 0 {
		t.Fatal("observed sharded run recorded no time-series")
	}
	if !observed.Finished {
		t.Fatal("observed sharded run did not finish")
	}
	if len(observed.CompletionTimes) != len(oracle.CompletionTimes) {
		t.Fatalf("completion counts differ: observed %d vs oracle %d",
			len(observed.CompletionTimes), len(oracle.CompletionTimes))
	}
	for id, at := range oracle.CompletionTimes {
		if bt := observed.CompletionTimes[id]; bt != at {
			t.Fatalf("node %d: observed %v vs oracle %v (not bit-identical)", id, bt, at)
		}
	}
	if observed.Elapsed != oracle.Elapsed {
		t.Fatalf("Elapsed differs: observed %v vs oracle %v", observed.Elapsed, oracle.Elapsed)
	}
	// Merged shard samples must be monotone in time and account real bytes.
	last := -1.0
	for _, s := range observed.Series {
		if s.Time <= last {
			t.Fatalf("series not strictly time-ordered: %v after %v", s.Time, last)
		}
		last = s.Time
	}
	if tail := observed.Series[len(observed.Series)-1]; tail.Completed != 1000 || tail.DataBytes <= 0 {
		t.Fatalf("final sample: completed=%d dataBytes=%v, want 1000 and > 0", tail.Completed, tail.DataBytes)
	}
}
