package harness

import (
	"strings"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
)

// legacySyntheticBandwidthChanges is the original hardcoded §4.1 closure,
// verbatim, kept as the oracle for the scenario re-expression.
func legacySyntheticBandwidthChanges(period float64) func(*Rig) {
	return func(r *Rig) {
		rng := r.Master.Stream("dynamics")
		n := len(r.Members)
		floor := make(map[int]float64)
		for _, src := range r.Members {
			for _, dst := range r.Members {
				if src != dst {
					floor[int(src)*n+int(dst)] = r.Net.Topo.CoreBW(src, dst) * DegradationFloor
				}
			}
		}
		var round func()
		round = func() {
			chosen := rng.SampleInts(n, n/2)
			for _, vi := range chosen {
				victim := r.Members[vi]
				others := rng.SampleInts(n, n/2)
				for _, oi := range others {
					src := r.Members[oi]
					if src == victim {
						continue
					}
					bw := r.Net.Topo.CoreBW(src, victim) * 0.5
					if f := floor[int(src)*n+int(victim)]; bw < f {
						bw = f
					}
					r.Net.Topo.SetCoreBW(src, victim, bw)
					r.Net.LinkChanged(src, victim)
				}
			}
			r.Eng.After(period, round)
		}
		r.Eng.After(period, round)
	}
}

// legacyCascadeDynamics is the original Figure 12 closure, verbatim.
func legacyCascadeDynamics(interval float64) func(*Rig) {
	return func(r *Rig) {
		next := 1
		var step func()
		step = func() {
			if next > 6 {
				return
			}
			r.Net.Topo.SetCoreBW(netem.NodeID(next), 7, netem.Kbps(100))
			r.Net.LinkChanged(netem.NodeID(next), 7)
			next++
			r.Eng.After(interval, step)
		}
		r.Eng.After(interval, step)
	}
}

// withLegacy runs a legacy closure from Hooks.OnStart, which fires right
// after the build, where RunSpec applies SweepSpec.Dynamics: the closure
// schedules its events in the same engine order the scenario does.
func withLegacy(spec SweepSpec, dynamics func(*Rig)) SweepSpec {
	spec.Hooks = &Hooks{OnStart: func(r *Rig, _ System) { dynamics(r) }}
	return spec
}

func requireIdenticalRuns(t *testing.T, a, b *RunResult) {
	t.Helper()
	if len(a.PerNode) != len(b.PerNode) {
		t.Fatalf("completion counts differ: %d vs %d", len(a.PerNode), len(b.PerNode))
	}
	for id, at := range a.PerNode {
		if b.PerNode[id] != at {
			t.Fatalf("node %d: completion %v vs %v", id, at, b.PerNode[id])
		}
	}
	if a.ControlBytes != b.ControlBytes || a.DataBytes != b.DataBytes {
		t.Fatalf("byte accounting diverged: (%v,%v) vs (%v,%v)",
			a.ControlBytes, a.DataBytes, b.ControlBytes, b.DataBytes)
	}
	if a.Finished != b.Finished {
		t.Fatalf("Finished %v vs %v", a.Finished, b.Finished)
	}
}

// TestScenarioMatchesLegacySynthetic is the scenario engine's equivalence
// contract: the §4.1 process expressed as a scenario program must reproduce
// the hardcoded closure bit-for-bit — same seed, identical per-node
// completion CDF and byte accounting.
func TestScenarioMatchesLegacySynthetic(t *testing.T) {
	w := Workload{FileBytes: 1.5e6, BlockSize: 16 * 1024}
	for _, seed := range []int64{3, 11} {
		spec := SweepSpec{Seed: seed, TopoFn: ModelNetTopology(12), Workload: w, Deadline: 3600}
		legacy := RunSpec(withLegacy(spec, legacySyntheticBandwidthChanges(5)))
		spec.Dynamics = SyntheticBandwidthChanges(5)
		scen := RunSpec(spec)
		requireIdenticalRuns(t, legacy, scen)
		if len(legacy.PerNode) == 0 {
			t.Fatalf("seed %d: no completions to compare", seed)
		}
	}
}

// TestScenarioMatchesLegacyCascade checks the Figure 12 schedule the same
// way on its dedicated 8-node topology.
func TestScenarioMatchesLegacyCascade(t *testing.T) {
	spec := SweepSpec{Seed: 23, TopoFn: CascadeTopology(), Deadline: 7200,
		Workload: Workload{FileBytes: 2e6, BlockSize: 16 * 1024}}
	legacy := RunSpec(withLegacy(spec, legacyCascadeDynamics(15)))
	spec.Dynamics = CascadeDynamics(15)
	scen := RunSpec(spec)
	requireIdenticalRuns(t, legacy, scen)
}

// TestRunSpecScenarioDeterministic runs a full mixed scenario (trace replay
// + outage + churn + two flash-crowd waves) twice on one seed and demands
// bit-identical results; a third run on another seed must differ in wave
// membership or completion times.
func TestRunSpecScenarioDeterministic(t *testing.T) {
	tr := &scenario.Trace{Times: []float64{0, 10, 20}, Values: []float64{1500, 500, 1000}, Duration: 30}
	sc := scenario.New("mixed",
		scenario.FlashCrowd(scenario.Wave{At: 0, Frac: 0.5}, scenario.Wave{At: 30}),
		scenario.TraceReplay(2, scenario.LinkSet{Nodes: []int{3, 4}, Dir: "in"}, tr, true),
		scenario.Outage(5, scenario.LinkSet{Pairs: [][2]int{{1, 2}}}, 30, 4, netem.Kbps(32)),
		scenario.Churn(10, 0.2, scenario.Dist{Kind: "exp", Mean: 60}),
	)
	prog, err := sc.Compile(14)
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{
		Label: "mixed", Seed: 5, TopoFn: ModelNetTopology(14),
		Workload: Workload{FileBytes: 1e6, BlockSize: 16 * 1024},
		Deadline: 900, Scenario: prog,
	}
	a := RunSpec(spec)
	b := RunSpec(spec)
	requireIdenticalRuns(t, a, b)
	if len(a.PerNode) == 0 {
		t.Fatal("scenario run completed nobody")
	}

	spec.Seed = 6
	c := RunSpec(spec)
	same := len(c.PerNode) == len(a.PerNode)
	if same {
		for id, at := range a.PerNode {
			if c.PerNode[id] != at {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical scenario runs")
	}
}

// TestWaveSystemStaggersSessions pins the flash-crowd mechanics: with two
// waves, no second-cohort node may complete before its wave starts, and all
// cohorts must finish on a calm network.
func TestWaveSystemStaggersSessions(t *testing.T) {
	sc := scenario.New("crowd",
		scenario.FlashCrowd(scenario.Wave{At: 0, Frac: 0.5}, scenario.Wave{At: 40}))
	prog, err := sc.Compile(12)
	if err != nil {
		t.Fatal(err)
	}
	var sys System
	res := RunSpec(SweepSpec{
		Label: "crowd", Seed: 9, TopoFn: LosslessModelNetTopology(12),
		Workload: Workload{FileBytes: 1e6, BlockSize: 16 * 1024},
		Deadline: 1200, Scenario: prog,
		Hooks: &Hooks{OnStart: func(_ *Rig, s System) { sys = s }},
	})
	if !res.Finished {
		t.Fatal("flash crowd did not finish on a calm network")
	}
	if got, want := sys.DoneAt(), lastCompletion(res); got != want {
		t.Fatalf("DoneAt() = %v, want the last wave's last completion %v", got, want)
	}
	// 12 members, two waves, one source per wave: 10 completions.
	if len(res.PerNode) != 10 {
		t.Fatalf("%d completions, want 10", len(res.PerNode))
	}
	cohorts := prog.ResolveWaves(sim.NewRNG(9).Stream("scenario/waves"))
	for _, id := range cohorts[1][1:] {
		if at, ok := res.PerNode[id]; ok && at < 40 {
			t.Fatalf("wave-1 node %d completed at %v, before its wave started", id, at)
		}
	}
}

// TestScenarioChurnKillsDownloads checks churn integration end to end: a
// run with heavy churn must record strictly fewer completions than the calm
// run and must not finish.
func TestScenarioChurnKillsDownloads(t *testing.T) {
	spec := SweepSpec{Seed: 4, TopoFn: ModelNetTopology(12), Deadline: 900,
		Workload: Workload{FileBytes: 1e6, BlockSize: 16 * 1024}}
	calm := RunSpec(spec)
	spec.Dynamics = scenario.New("churn",
		scenario.Churn(1, 0.4, scenario.Dist{Kind: "exp", Mean: 5}))
	churny := RunSpec(spec)
	if churny.Finished {
		t.Fatal("run finished despite 40% of members crashing")
	}
	if len(churny.PerNode) >= len(calm.PerNode) {
		t.Fatalf("churn run completed %d nodes, calm %d", len(churny.PerNode), len(calm.PerNode))
	}
}

// TestScenarioDynamicsRejectsWaves pins the guard: flash-crowd waves need
// session construction, so a Dynamics scenario that has them is refused by
// name, and nothing runs.
func TestScenarioDynamicsRejectsWaves(t *testing.T) {
	spec := sequentialSpec(1)
	spec.Dynamics = scenario.New("w", scenario.FlashCrowd(scenario.Wave{At: 0, Frac: 1}))
	res := RunSpec(spec)
	if res.Err == nil || !strings.Contains(res.Err.Error(), `dynamics scenario "w" has flash-crowd waves`) {
		t.Fatalf("Err = %v, want the flash-crowd waves named", res.Err)
	}
	if res.EndedAt != 0 || len(res.PerNode) != 0 {
		t.Fatalf("a refused spec ran: %+v", res)
	}
}
