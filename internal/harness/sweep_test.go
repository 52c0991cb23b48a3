package harness

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"bulletprime/internal/sim"
)

func sweepTestSpecs() []SweepSpec {
	w := Workload{FileBytes: 1e6, BlockSize: 16 * 1024}
	var specs []SweepSpec
	for seed := int64(1); seed <= 4; seed++ {
		specs = append(specs, SweepSpec{
			Label:    fmt.Sprintf("seed%d", seed),
			Seed:     seed,
			TopoFn:   ModelNetTopology(10),
			Workload: w,
			Deadline: sim.Time(3600),
		})
	}
	return specs
}

// TestSweepMatchesSequentialRunSpec is the parallelism contract: a sweep's
// rigs each run on a private engine, so every cell must reproduce the
// sequential RunSpec of its spec exactly — same per-node completion times,
// same byte accounting.
func TestSweepMatchesSequentialRunSpec(t *testing.T) {
	specs := sweepTestSpecs()
	par := Sweep(specs, len(specs))
	for i, s := range specs {
		seq := RunSpec(s)
		got := par[i]
		if got == nil {
			t.Fatalf("spec %d: nil result", i)
		}
		if got.Finished != seq.Finished {
			t.Fatalf("seed %d: Finished %v vs sequential %v", s.Seed, got.Finished, seq.Finished)
		}
		if got.ControlBytes != seq.ControlBytes || got.DataBytes != seq.DataBytes {
			t.Fatalf("seed %d: byte accounting diverged: (%v,%v) vs (%v,%v)",
				s.Seed, got.ControlBytes, got.DataBytes, seq.ControlBytes, seq.DataBytes)
		}
		if len(got.PerNode) != len(seq.PerNode) {
			t.Fatalf("seed %d: %d completions vs sequential %d", s.Seed, len(got.PerNode), len(seq.PerNode))
		}
		for id, at := range seq.PerNode {
			if got.PerNode[id] != at {
				t.Fatalf("seed %d node %d: completion %v vs sequential %v", s.Seed, id, got.PerNode[id], at)
			}
		}
	}
}

// TestSweepRepeatable checks that two parallel sweeps of the same specs are
// identical to each other, whatever the goroutine interleaving.
func TestSweepRepeatable(t *testing.T) {
	specs := sweepTestSpecs()
	a := Sweep(specs, 2)
	b := Sweep(specs, 4)
	for i := range specs {
		for id, at := range a[i].PerNode {
			if b[i].PerNode[id] != at {
				t.Fatalf("spec %d node %d: %v vs %v across sweeps", i, id, at, b[i].PerNode[id])
			}
		}
	}
}

// TestParallelRunsEachJobOnce pins the worker pool every sweep shares: each
// index runs exactly once, never on more than min(parallel, n) goroutines at
// a time, and Parallel returns only after the last job has.
func TestParallelRunsEachJobOnce(t *testing.T) {
	for _, tc := range []struct{ n, parallel int }{{0, 4}, {1, 4}, {3, 8}, {50, 3}, {50, 1}, {50, 0}} {
		limit := tc.parallel
		if limit <= 0 {
			limit = runtime.GOMAXPROCS(0)
		}
		limit = min(limit, tc.n)
		var mu sync.Mutex
		runs := make([]int, tc.n)
		busy, peak := 0, 0
		Parallel(tc.n, tc.parallel, func(i int) {
			mu.Lock()
			runs[i]++
			busy++
			peak = max(peak, busy)
			mu.Unlock()
			mu.Lock()
			busy--
			mu.Unlock()
		})
		for i, r := range runs {
			if r != 1 {
				t.Errorf("n=%d parallel=%d: job %d ran %d times", tc.n, tc.parallel, i, r)
			}
		}
		if busy != 0 || peak > limit {
			t.Errorf("n=%d parallel=%d: %d jobs still running at return, %d at once, want 0 and at most %d",
				tc.n, tc.parallel, busy, peak, limit)
		}
	}
}

func TestClusteredTopologyShape(t *testing.T) {
	topo := ClusteredTopology(50, 10)(sim.NewRNG(1).Stream("topo"))
	if topo.N != 50 {
		t.Fatalf("N = %d, want 50", topo.N)
	}
	// Same cluster: fast, clean. Different cluster: scarce.
	if topo.CoreBW(0, 9) <= topo.CoreBW(0, 10) {
		t.Fatalf("intra-cluster bw %v not greater than inter-cluster %v",
			topo.CoreBW(0, 9), topo.CoreBW(0, 10))
	}
	if topo.CoreLoss(0, 9) != 0 {
		t.Fatal("intra-cluster links must be lossless")
	}
}

// TestSweepOnResultCapturesCells pins the archival capture point: a shared
// goroutine-safe OnResult hook sees every cell's result exactly once, and
// the captured results are the same objects Sweep returns.
func TestSweepOnResultCapturesCells(t *testing.T) {
	specs := sweepTestSpecs()
	var mu sync.Mutex
	captured := map[string]*RunResult{}
	hooks := &Hooks{OnResult: func(r *RunResult) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := captured[r.Label]; dup {
			t.Errorf("OnResult fired twice for %s", r.Label)
		}
		captured[r.Label] = r
	}}
	for i := range specs {
		specs[i].Hooks = hooks
	}
	results := Sweep(specs, 2)
	if len(captured) != len(specs) {
		t.Fatalf("captured %d cells, want %d", len(captured), len(specs))
	}
	for i, s := range specs {
		if captured[s.Label] != results[i] {
			t.Fatalf("cell %d: captured result is not the returned result", i)
		}
	}
}
