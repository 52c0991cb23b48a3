package harness

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bulletprime/internal/core"
	"bulletprime/internal/netem"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
)

// sequentialSpec is the smallest emulated run: 10 nodes, a 256 KB file.
func sequentialSpec(seed int64) SweepSpec {
	return SweepSpec{
		Label:    "sequential/test",
		Seed:     seed,
		TopoFn:   ModelNetTopology(10),
		System:   "BulletPrime",
		Workload: Workload{FileBytes: 256 * 1024, BlockSize: 16 * 1024},
		Deadline: 1200,
	}
}

// openFiles counts the process's open descriptors, or -1 where /proc is not
// there to ask.
func openFiles() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestRunSpecRules walks every rule that keeps a spec from running: each
// line of SweepSpec.Check on each backend it applies to, then the three
// reasons a rig can fail to build. Every row must come back as RunResult.Err
// naming the conflict — never a panic — in one shape, with nothing run and,
// on the testbed rows, no goroutine or socket left behind.
func TestRunSpecRules(t *testing.T) {
	prog := func(n int, events ...scenario.Event) *scenario.Program {
		p, err := scenario.New("rules", events...).Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	stream := &StreamSpec{BitrateBps: 64 * 1024, Duration: 5}
	backends := map[string]func() SweepSpec{
		"sequential": func() SweepSpec { return sequentialSpec(1) },
		"testbed":    func() SweepSpec { return testbedSpec("BulletPrime", 1) },
		"sharded":    func() SweepSpec { return shardedSpec(1, 4, 1) },
	}
	cases := []struct {
		backend string
		name    string
		mutate  func(*SweepSpec)
		want    string
		// drawn: the rule can only be read off the drawn topology, so
		// TopoFn runs; every other row is refused before it.
		drawn bool
	}{
		{"sequential", "unknown system", func(s *SweepSpec) { s.System = "nope" }, `unknown system "nope"`, false},
		{"testbed", "unknown system", func(s *SweepSpec) { s.System = "nope" }, `unknown system "nope"`, false},
		{"sharded", "unknown system", func(s *SweepSpec) { s.System = "nope" }, `unknown system "nope"`, false},

		{"sharded", "stream", func(s *SweepSpec) { s.Stream = stream }, "sequential engine", false},
		{"testbed", "stream", func(s *SweepSpec) { s.Stream = stream }, "testbed", false},
		{"sequential", "stream on a one-shot system", func(s *SweepSpec) { s.Stream, s.System = stream, "BitTorrent" },
			"does not support live streaming", false},
		{"sequential", "stream without a rate", func(s *SweepSpec) { s.Stream = &StreamSpec{Duration: 5} },
			"BitrateBps must be positive", false},
		{"sequential", "stream without a duration", func(s *SweepSpec) { s.Stream = &StreamSpec{BitrateBps: 1} },
			"Duration must be positive", false},
		{"sequential", "stream playout depth not a number", func(s *SweepSpec) { s.Stream = &StreamSpec{BitrateBps: 1, Duration: 5, PlayoutDepth: math.NaN()} },
			"PlayoutDepth must be finite", false},
		{"sequential", "stream warm-up not a number", func(s *SweepSpec) { s.Stream = &StreamSpec{BitrateBps: 1, Duration: 5, Warmup: math.NaN()} },
			"Warmup must be finite", false},
		{"sequential", "stream drain not a number", func(s *SweepSpec) { s.Stream = &StreamSpec{BitrateBps: 1, Duration: 5, Drain: math.Inf(1)} },
			"Drain must be finite", false},
		// A stream's file is derived from its block, so the block is named.
		{"sequential", "stream block not a number", func(s *SweepSpec) {
			s.Stream, s.Workload = stream, Workload{BlockSize: math.NaN()}
		}, "Workload.BlockSize must be positive and finite, got NaN", false},

		{"sequential", "unknown engine", func(s *SweepSpec) { s.Engine = -1 }, "unknown Engine -1", false},
		{"sequential", "no file", func(s *SweepSpec) { s.Workload.FileBytes = 0 }, "Workload.FileBytes must be positive and finite, got 0", false},
		{"sequential", "file not a number", func(s *SweepSpec) { s.Workload.FileBytes = math.NaN() }, "Workload.FileBytes must be positive and finite, got NaN", false},
		{"sequential", "infinite file", func(s *SweepSpec) { s.Workload.FileBytes = math.Inf(1) }, "Workload.FileBytes must be positive and finite, got +Inf", false},
		{"sequential", "no block", func(s *SweepSpec) { s.Workload.BlockSize = 0 }, "Workload.BlockSize must be positive and finite, got 0", false},
		{"testbed", "no block", func(s *SweepSpec) { s.Workload.BlockSize = 0 }, "Workload.BlockSize must be positive and finite, got 0", false},
		{"sharded", "no block", func(s *SweepSpec) { s.Workload.BlockSize = 0 }, "Workload.BlockSize must be positive and finite, got 0", false},
		{"sequential", "block not a number", func(s *SweepSpec) { s.Workload.BlockSize = math.NaN() }, "Workload.BlockSize must be positive and finite, got NaN", false},
		{"sequential", "infinite block", func(s *SweepSpec) { s.Workload.BlockSize = math.Inf(1) }, "Workload.BlockSize must be positive and finite, got +Inf", false},

		{"testbed", "sharded", func(s *SweepSpec) { s.Engine = EngineSharded }, "sharded engine", false},
		{"testbed", "scenario", func(s *SweepSpec) { s.Scenario = prog(8) }, "scenarios", false},
		{"testbed", "dynamics", func(s *SweepSpec) { s.Dynamics = SyntheticBandwidthChanges(20) }, "DynamicBandwidth", false},
		{"sharded", "scenario", func(s *SweepSpec) { s.Scenario = prog(200) }, "scenarios", false},
		{"sharded", "dynamics", func(s *SweepSpec) { s.Dynamics = SyntheticBandwidthChanges(20) }, "DynamicBandwidth", false},

		{"sharded", "OnStart", func(s *SweepSpec) { s.Hooks = &Hooks{OnStart: func(*Rig, System) {}} }, "OnShardStart", false},
		{"sharded", "OnTick", func(s *SweepSpec) { s.Hooks = &Hooks{OnTick: func(*Rig, System) {}} }, "OnShardTick", false},
		{"sharded", "OnBlock", func(s *SweepSpec) { s.Hooks = &Hooks{OnBlock: func(netem.NodeID, int, int) {}} }, "OnBlock", false},
		{"sharded", "Annotate", func(s *SweepSpec) { s.Hooks = &Hooks{Annotate: func(string) {}} }, "Annotate", false},

		{"sharded", "single-rig system", func(s *SweepSpec) { s.System = "BulletPrime" }, "not registered for sharded", false},
		{"sequential", "sharded-only system", func(s *SweepSpec) { s.System = "scalefill" }, "not registered for sequential", false},
		{"testbed", "sharded-only system", func(s *SweepSpec) { s.System = "scalefill" }, "not registered for sequential", false},

		{"sequential", "scenario for another overlay", func(s *SweepSpec) { s.Scenario = prog(12) }, "compiled for 12 nodes", true},
		// A frac selector's core links span members, so on two compact
		// clusters it would write an inter-cluster link mid-run and panic.
		{"sequential", "core links across immutable clusters", func(s *SweepSpec) {
			s.TopoFn = ClusteredTopologyCompact(10, 5)
			s.Scenario = prog(10, scenario.ScaleBW(1, scenario.LinkSet{Frac: 0.1, Dir: "in"}, 0.5))
		}, "event 0 (scale_bw at t=1s) changes core link 5→0, and this topology's inter-cluster links are immutable", true},
		// The façade's DynamicBandwidth is a degrade, whose victims' inbound
		// core links span members: the same refusal, through Dynamics.
		{"sequential", "dynamics across immutable clusters", func(s *SweepSpec) {
			s.TopoFn = ClusteredTopologyCompact(10, 5)
			s.Dynamics = SyntheticBandwidthChanges(20)
		}, `scenario "synthetic-bandwidth-changes" event 0 (degrade at t=0s) changes core link 5→0`, true},
		{"sharded", "unclustered topology", func(s *SweepSpec) { s.TopoFn = ModelNetTopology(50) }, "clustered topology", true},
		// Node 3's address cannot be bound, after nodes 0-2 have sockets and
		// reader goroutines: the rig build must take those down again.
		{"testbed", "unbindable address", func(s *SweepSpec) { s.Testbed.Peers = map[int]string{3: "203.0.113.1:9"} }, "bind", true},
	}
	for _, tc := range cases {
		t.Run(tc.backend+"/"+tc.name, func(t *testing.T) {
			spec := backends[tc.backend]()
			tc.mutate(&spec)
			if want := spec.Check(); !tc.drawn && (want == nil || !strings.Contains(want.Error(), tc.want)) {
				t.Fatalf("Check() = %v, want a mention of %q", want, tc.want)
			}
			drawn, results := false, 0
			topoFn := spec.TopoFn
			spec.TopoFn = func(rng *sim.RNG) *netem.Topology { drawn = true; return topoFn(rng) }
			if spec.Hooks == nil {
				spec.Hooks = &Hooks{}
			}
			spec.Hooks.OnResult = func(*RunResult) { results++ }
			goroutines, files := runtime.NumGoroutine(), openFiles()

			res := RunSpec(spec)

			if res.Err == nil || !strings.Contains(res.Err.Error(), tc.want) {
				t.Fatalf("Err = %v, want a mention of %q", res.Err, tc.want)
			}
			if res.Finished || res.Stopped || res.EndedAt != 0 || res.DataBytes != 0 || res.Stream != nil {
				t.Errorf("a refused spec reported a run: %+v", res)
			}
			if res.Label != spec.Label || res.PerNode == nil || len(res.PerNode) != 0 || res.CDF == nil || res.CDF.N() != 0 {
				t.Errorf("error result shape: label %q PerNode %v CDF %v, want the label and empty, non-nil maps",
					res.Label, res.PerNode, res.CDF)
			}
			if results != 0 {
				t.Errorf("OnResult fired %d times for a run that never happened", results)
			}
			if drawn != tc.drawn {
				t.Errorf("topology drawn = %v, want %v", drawn, tc.drawn)
			}
			if tc.backend != "testbed" {
				return
			}
			// Transport.Stop waits for its readers, so nothing needs settling;
			// the retry only absorbs an unrelated runtime goroutine winding down.
			for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines after the refused run, %d before", n, goroutines)
			}
			if n := openFiles(); n > files {
				t.Errorf("%d open files after the refused run, %d before", n, files)
			}
		})
	}
	// The one default the table has: no System named means Bullet'.
	t.Run("sequential/empty system", func(t *testing.T) {
		spec := sequentialSpec(1)
		spec.System = ""
		var built System
		spec.Hooks = &Hooks{OnStart: func(_ *Rig, sys System) { built = sys }}
		res := RunSpec(spec)
		if _, ok := built.(*core.Session); res.Err != nil || !ok {
			t.Fatalf("empty System built %T (Err %v), want Bullet's *core.Session", built, res.Err)
		}
		if named := RunSpec(sequentialSpec(1)); !res.Finished || res.DataBytes != named.DataBytes || res.EndedAt != named.EndedAt {
			t.Fatalf("empty System ran differently from %q: ended %v with %v bytes, want %v with %v",
				KindBulletPrime, res.EndedAt, res.DataBytes, named.EndedAt, named.DataBytes)
		}
	})
}

// startProbe wraps a system to report when Start is called.
type startProbe struct {
	System
	started *bool
}

func (p startProbe) Start() {
	*p.started = true
	p.System.Start()
}

// probeStarted is the flag the "contract-probe" system's next build hands
// its startProbe; TestBackendContract runs its cells one at a time.
var probeStarted *bool

// One registry entry with both builders: Bullet' on a single rig, scalefill
// on shards, each behind a startProbe.
func init() {
	RegisterSystem("contract-probe", SystemEntry{
		Build:        func(ctx BuildCtx) System { return startProbe{buildBulletPrime(ctx), probeStarted} },
		BuildSharded: func(ctx ShardBuildCtx) ShardSystem { return startProbe{buildScalefill(ctx), probeStarted} },
	})
}

// TestBackendContract runs one small cell through each backend's Hooks
// surface and asserts what RunSpec owns once for all three: the start hook
// fires exactly once, before System.Start; ticks arrive in strictly
// increasing virtual time, TickEvery apart, none after EndedAt; OnResult
// fires exactly once, after the last tick; and Stop ends the run with
// Stopped set.
func TestBackendContract(t *testing.T) {
	const every = 0.5
	cases := []struct {
		name string
		spec SweepSpec
		// stopAfter is the Stop poll that ends the stopped run: the
		// sequential engine polls per event batch, the others far less often.
		stopAfter int64
	}{
		{"sequential", sequentialSpec(2), 200},
		{"testbed", testbedSpec("BulletPrime", 2), 3},
		{"sharded", shardedSpec(2, 4, 0), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var log []string
			var ticks []sim.Time
			started := false
			probeStarted = &started
			onStart := func() {
				if started {
					t.Error("start hook fired after System.Start")
				}
				log = append(log, "start")
			}
			hooks := &Hooks{
				TickEvery:    every,
				OnStart:      func(*Rig, System) { onStart() },
				OnShardStart: func(*ShardedRig, ShardSystem) { onStart() },
				OnTick: func(rig *Rig, _ System) {
					ticks = append(ticks, rig.Counters().Now)
					log = append(log, "tick")
				},
				OnShardTick: func(rig *ShardedRig, _ ShardSystem) {
					ticks = append(ticks, rig.Counters().Now)
					log = append(log, "tick")
				},
				OnResult: func(*RunResult) { log = append(log, "result") },
			}
			spec := tc.spec
			spec.System = "contract-probe"
			if spec.Engine == EngineSharded {
				hooks.OnStart, hooks.OnTick = nil, nil // the sharded engine refuses them
			}
			spec.Hooks = hooks

			res := RunSpec(spec)

			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if !started || !res.Finished || res.Stopped {
				t.Fatalf("started=%v Finished=%v Stopped=%v, want a started, finished run", started, res.Finished, res.Stopped)
			}
			if len(ticks) < 2 {
				t.Fatalf("%d ticks by t=%v; the cell is too short to check the cadence", len(ticks), res.EndedAt)
			}
			want := append(append([]string{"start"}, slices.Repeat([]string{"tick"}, len(ticks))...), "result")
			if got := strings.Join(log, " "); got != strings.Join(want, " ") {
				t.Errorf("hook order %q, want one start, %d ticks, one result", got, len(ticks))
			}
			for k, at := range ticks {
				if at != sim.Time(every*float64(k+1)) {
					t.Fatalf("tick %d at t=%v, want %v", k, at, every*float64(k+1))
				}
			}
			if last := ticks[len(ticks)-1]; last > res.EndedAt {
				t.Errorf("last tick at t=%v, after EndedAt %v", last, res.EndedAt)
			}

			var polls atomic.Int64 // whichever goroutine a backend polls Stop from
			started = false
			hooks.Stop = func() bool { return polls.Add(1) > tc.stopAfter }
			res = RunSpec(spec)
			if !res.Stopped || res.Finished || res.Err != nil {
				t.Errorf("stopped run: Stopped=%v Finished=%v Err=%v, want stopped and unfinished", res.Stopped, res.Finished, res.Err)
			}
			if log[len(log)-1] != "result" {
				t.Error("OnResult did not fire for the stopped run")
			}
		})
	}
}

// TestStreamCapabilityFromRegistry: a stream handed to a system whose
// builder ignores StreamBps used to run one-shot and report lag against a
// source that was never paced; only the façade refused it.
func TestStreamCapabilityFromRegistry(t *testing.T) {
	for _, name := range SystemNames() {
		e, _ := LookupSystem(name)
		spec := sequentialSpec(1)
		spec.System = name
		spec.Stream = &StreamSpec{BitrateBps: 64 * 1024, Duration: 5}
		err := spec.Check()
		if runs := e.Build != nil && e.Streams; runs != (err == nil) {
			t.Errorf("%s (Build %v, Streams %v): Check() = %v", name, e.Build != nil, e.Streams, err)
		}
	}
	names := SystemNames()
	if !slices.IsSorted(names) || !slices.Contains(names, "BulletPrime") || !slices.Contains(names, "scalefill") {
		t.Errorf("SystemNames() = %v: one table should list single-rig and sharded systems together, sorted", names)
	}
}
