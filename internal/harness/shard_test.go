package harness

import (
	"math"
	"strings"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

func TestPlanShards(t *testing.T) {
	topo := ClusteredTopology(200, 25)(sim.NewRNG(1).Stream("topo")) // 8 clusters
	p, err := PlanShards(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", p.Shards)
	}
	if p.Lookahead != topo.CrossLookahead {
		t.Fatalf("Lookahead = %v, want %v", p.Lookahead, topo.CrossLookahead)
	}
	// Contiguous blocks of whole clusters, 2 clusters per shard here.
	for c := 0; c < 8; c++ {
		if want := int32(c / 2); p.ClusterShard[c] != want {
			t.Fatalf("cluster %d on shard %d, want %d", c, p.ClusterShard[c], want)
		}
	}
	for i := 0; i < 200; i++ {
		if p.NodeShard[i] != p.ClusterShard[i/25] {
			t.Fatalf("node %d shard %d != its cluster's shard %d", i, p.NodeShard[i], p.ClusterShard[i/25])
		}
	}
	// More shards than clusters caps at the cluster count.
	if got, _ := PlanShards(topo, 100); got.Shards != 8 {
		t.Fatalf("shard cap = %d, want 8", got.Shards)
	}
	// Unset count picks the fixed default.
	if got, _ := PlanShards(topo, 0); got.Shards != DefaultShards {
		t.Fatalf("default shards = %d, want %d", got.Shards, DefaultShards)
	}

	// Topologies without cluster metadata cannot be sharded.
	flat := ModelNetTopology(50)(sim.NewRNG(1).Stream("topo"))
	if _, err := PlanShards(flat, 4); err == nil || !strings.Contains(err.Error(), "clustered topology") {
		t.Errorf("PlanShards on unclustered topology: err = %v, want the clustered-topology error", err)
	}
	if _, err := NewShardedRig(flat, 1, 4); err == nil {
		t.Error("NewShardedRig on unclustered topology returned no error")
	}
	// The lookahead is the window length: it must be positive and finite.
	for _, la := range []float64{0, math.NaN(), math.Inf(1)} {
		bad := ClusteredTopology(200, 25)(sim.NewRNG(1).Stream("topo"))
		bad.CrossLookahead = la
		if _, err := PlanShards(bad, 4); err == nil {
			t.Errorf("PlanShards with CrossLookahead %v returned no error", la)
		}
	}
}

func TestClusteredTopologyValidation(t *testing.T) {
	for _, tc := range []struct{ n, cs int }{{100, 33}, {100, 1}, {0, 25}, {10, 25}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ClusteredTopology(%d, %d) did not panic", tc.n, tc.cs)
				}
			}()
			ClusteredTopology(tc.n, tc.cs)
		}()
	}
	// The default cluster size still applies before validation.
	ClusteredTopology(100, 0)
}

func shardedSpec(seed int64, shards, workers int) SweepSpec {
	return SweepSpec{
		Label:    "scalefill/test",
		Seed:     seed,
		TopoFn:   ClusteredTopology(200, 25),
		Workload: Workload{FileBytes: 1.5e6, BlockSize: 16384},
		Deadline: 40,
		System:   "scalefill",
		Engine:   EngineSharded,
		Shards:   shards,
		Workers:  workers,
	}
}

func assertSameResult(t *testing.T, tag string, a, b *RunResult) {
	t.Helper()
	if len(a.PerNode) != len(b.PerNode) {
		t.Fatalf("%s: completion counts differ: %d vs %d", tag, len(a.PerNode), len(b.PerNode))
	}
	for id, at := range a.PerNode {
		bt, ok := b.PerNode[id]
		if !ok {
			t.Fatalf("%s: node %d completed in one run only", tag, id)
		}
		if at != bt {
			t.Fatalf("%s: node %d completion %v vs %v (not bit-identical)", tag, id, at, bt)
		}
	}
	if a.Finished != b.Finished || a.EndedAt != b.EndedAt {
		t.Fatalf("%s: Finished/EndedAt differ: %v/%v vs %v/%v",
			tag, a.Finished, a.EndedAt, b.Finished, b.EndedAt)
	}
}

// TestShardedWorkerEquivalence is the churn-scenario goroutine-interleaving
// pin at the harness level: a full sharded run (flows, waterfill, per-shard
// link churn, cross-shard tokens) executed cooperatively on one goroutine
// (Workers=1) must be bit-identical to the same run on one goroutine per
// shard (Workers=0). It runs in -short mode on purpose — the CI race job
// uses it to catch a shard touching state outside its own window.
func TestShardedWorkerEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 17, 20260808} {
		serial := RunSpec(shardedSpec(seed, 4, 1))
		parallel := RunSpec(shardedSpec(seed, 4, 0))
		if len(serial.PerNode) == 0 {
			t.Fatalf("seed %d: no nodes completed; equivalence test is vacuous", seed)
		}
		if !serial.Finished {
			t.Fatalf("seed %d: run did not finish before the deadline", seed)
		}
		assertSameResult(t, "workers 1 vs N", serial, parallel)
	}
}

// TestShardedCompactWorkerEquivalence is the same pin on the compact
// topology with several clusters per shard — the configuration of the one
// parallel tenant at scale. Every shard's first SetCoreBW lands at the same
// virtual instant from a different goroutine, so under the race detector
// this is what shows a shard writing topology state it does not own. It is
// skipped in -short mode; CI names it in the sharded -race step.
func TestShardedCompactWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("compact sharded equivalence is -short-exempt")
	}
	for _, seed := range []int64{1, 17, 20260808} {
		spec := func(workers int) SweepSpec {
			s := shardedSpec(seed, 4, workers)
			s.TopoFn = ClusteredTopologyCompact(600, 25) // 6 clusters per shard
			return s
		}
		serial := RunSpec(spec(1))
		parallel := RunSpec(spec(0))
		if !serial.Finished || len(serial.PerNode) != 600 {
			t.Fatalf("seed %d: oracle finished=%v completions=%d, want all 600",
				seed, serial.Finished, len(serial.PerNode))
		}
		assertSameResult(t, "compact, workers 1 vs N", serial, parallel)
	}
}

// TestShardedShardCountChangesResults documents the contract: the shard
// count is part of the experiment's identity (per-shard RNG streams and
// recompute coalescing), so K=2 and K=4 are different experiments.
func TestShardedShardCountChangesResults(t *testing.T) {
	a := RunSpec(shardedSpec(5, 2, 1))
	b := RunSpec(shardedSpec(5, 4, 1))
	same := len(a.PerNode) == len(b.PerNode)
	if same {
		for id, at := range a.PerNode {
			if bt, ok := b.PerNode[id]; !ok || bt != at {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("K=2 and K=4 produced identical results; the shard count should matter")
	}
}

// TestShardedSingleShard pins the degenerate K=1 case: everything local, no
// cross posts, still a valid run.
func TestShardedSingleShard(t *testing.T) {
	spec := shardedSpec(3, 1, 0)
	var sys ShardSystem
	spec.Hooks = &Hooks{OnShardStart: func(_ *ShardedRig, s ShardSystem) { sys = s }}
	res := RunSpec(spec)
	if !res.Finished || len(res.PerNode) != 200 {
		t.Fatalf("K=1 sharded run: finished=%v completions=%d", res.Finished, len(res.PerNode))
	}
	if got, want := sys.DoneAt(), lastCompletion(res); got != want {
		t.Fatalf("DoneAt() = %v, want the last completion %v", got, want)
	}
}

// lastCompletion is the latest completion time of a run.
func lastCompletion(res *RunResult) sim.Time {
	var last sim.Time
	for _, at := range res.PerNode {
		last = max(last, at)
	}
	return last
}

// TestShardedRunRejectsSequentialFeatures: what the sharded engine cannot
// run comes back as RunResult.Err, never as a panic.
func TestShardedRunRejectsSequentialFeatures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SweepSpec)
	}{
		{"Dynamics", func(s *SweepSpec) { s.Dynamics = SyntheticBandwidthChanges(20) }},
		{"OnTick", func(s *SweepSpec) { s.Hooks = &Hooks{OnTick: func(*Rig, System) {}, TickEvery: 1} }},
		{"sequential-only system", func(s *SweepSpec) { s.System = "BulletPrime" }},
	}
	for _, tc := range cases {
		spec := shardedSpec(1, 4, 1)
		tc.mutate(&spec)
		if res := RunSpec(spec); res.Err == nil || res.Finished || len(res.PerNode) != 0 {
			t.Errorf("sharded run with %s: Err=%v Finished=%v completions=%d, want an error and nothing run",
				tc.name, res.Err, res.Finished, len(res.PerNode))
		}
	}
}

// TestShardedStopHook checks cancellation plumbing: Hooks.Stop ends the run
// early and marks the result.
func TestShardedStopHook(t *testing.T) {
	polls := 0
	spec := shardedSpec(1, 4, 1)
	spec.Hooks = &Hooks{Stop: func() bool { polls++; return polls > 3 }}
	res := RunSpec(spec)
	if !res.Stopped || res.Finished {
		t.Fatalf("Stopped=%v Finished=%v, want stopped and unfinished", res.Stopped, res.Finished)
	}
}

// TestShardedCrossShardFlowPanics checks the ownership guard end to end: a
// flow between nodes of different shards must refuse to build.
func TestShardedCrossShardFlowPanics(t *testing.T) {
	topo := ClusteredTopology(200, 25)(sim.NewRNG(1).Stream("topo"))
	rig, err := NewShardedRig(topo, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard NewFlow did not panic")
		}
	}()
	rig.Slots[0].Net.NewFlow(netem.NodeID(0), netem.NodeID(199))
}
