package harness

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"bulletprime/internal/core"
	"bulletprime/internal/netem"
	"bulletprime/internal/obs"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
)

// SweepSpec describes one independent rig: everything RunSpec needs to run
// it, bundled so a seeds × protocols × presets cross product can be built up
// front and fanned across workers.
type SweepSpec struct {
	Label  string
	Seed   int64
	TopoFn func(*sim.RNG) *netem.Topology
	// Dynamics is a link-dynamics scenario (SyntheticBandwidthChanges, the
	// façade's DynamicBandwidth; CascadeDynamics). RunSpec compiles it for
	// the drawn topology, checks it fits, and applies it after Scenario's
	// events. It cannot hold flash-crowd waves: sessions come from Scenario.
	Dynamics *scenario.Scenario
	Workload Workload
	CoreMut  func(*core.Config)
	Deadline sim.Time

	// System names a protocol from the open registry (RegisterSystem): a
	// ProtoKind's String() or a third-party name registered through the
	// façade. Empty means Bullet'.
	System string

	// Engine selects the execution engine. EngineSequential (the zero
	// value) runs the classic single-threaded loop; EngineSharded
	// partitions the run by topology cluster and executes shards in
	// parallel in lockstep windows. Sharded runs require a clustered
	// TopoFn and a system with a sharded builder; Check lists what they
	// exclude.
	Engine EngineMode

	// Shards is the shard count for EngineSharded; <= 0 picks the default
	// (DefaultShards, capped at the cluster count). Results depend on the
	// shard count — it is part of the experiment's identity, never derived
	// from the host's core count.
	Shards int

	// Workers caps the goroutines driving a sharded run: 1 runs all shards
	// cooperatively on one goroutine (the bit-exact oracle of the parallel
	// mode), any other value runs one goroutine per shard. Results never
	// depend on Workers.
	Workers int

	// Scenario optionally applies a compiled scenario program — declarative
	// link dynamics, trace replay, outages, churn, and flash-crowd waves —
	// to the rig. A Program is immutable, so one compiled scenario fans
	// across every seed of a sweep; per-seed randomness comes from each
	// rig's master RNG, keeping every cell bit-identical to a sequential
	// run of the same seed.
	Scenario *scenario.Program

	// Stream, when non-nil, makes the run a live stream: the source paces
	// block emission at Stream.BitrateBps for Stream.Duration, every member
	// becomes a tracked viewer, and RunResult.Stream reports lag, jitter,
	// rebuffering, and goodput. The Workload's FileBytes may be left zero to
	// derive the content size from the stream geometry. Check lists what a
	// stream excludes.
	Stream *StreamSpec

	// Testbed, when non-nil, runs the spec over the real-socket UDP backend
	// instead of the emulated network: same rig, same registered system,
	// traffic on real sockets, wall-clock-driven virtual time. Check lists
	// what the testbed excludes. See TestbedSpec.
	Testbed *TestbedSpec

	// Hooks optionally observe the run (sampling ticks, block callbacks,
	// annotations) and steer it (early stop). Hooks only read state, so an
	// observed cell stays bit-identical to an unobserved one. Note that
	// hook closures are per-spec: a spec sharing Hooks across Sweep workers
	// must make its callbacks goroutine-safe.
	Hooks *Hooks

	// Tracer, when non-nil, records typed protocol-decision spans (sender
	// trims and promotions, rechokes, reconcile rounds, stream rebuffers,
	// testbed retransmits) into its bounded ring. Tracing only reads run
	// state, so a traced run stays bit-identical to an untraced one. For
	// sharded runs each shard records into a private tracer and the spans
	// are merged deterministically into this one after the run.
	Tracer *obs.Tracer
}

// The block geometry's refusals. A block or file size that is not a
// positive, finite number has no run: a NaN block scheduled its transfers at
// NaN, and an infinite file ran as one block.
var (
	errFileBytes = errors.New("harness: Workload.FileBytes must be positive and finite")
	errBlockSize = errors.New("harness: Workload.BlockSize must be positive and finite")
)

// positiveFinite reports whether v is in (0, +Inf); NaN is not.
func positiveFinite(v float64) bool { return v > 0 && v < math.Inf(1) }

// Check is the one table of spec rules: which features combine, and why the
// rest cannot, and the block geometry every run needs. RunSpec returns its
// error as RunResult.Err before anything is built, and the bulletprime
// façade's New returns it verbatim, so a spec is refused with the same words
// at every entry point. The first rule that applies wins. The file size is
// checked before the block size, which the façade clamps to it; a stream's
// file is derived from its block (RunSpec derives it before the rules run),
// so a stream with a bad block is refused for its block.
func (s *SweepSpec) Check() error {
	_, err := s.check()
	return err
}

// check is Check, also returning the registry entry the spec resolved to.
func (s *SweepSpec) check() (SystemEntry, error) {
	name := s.System
	if name == "" {
		name = KindBulletPrime.String()
	}
	e, known := LookupSystem(name)
	sharded, testbed := s.Engine == EngineSharded, s.Testbed != nil
	linkProgram := ""
	switch {
	case s.Scenario != nil:
		linkProgram = "scenarios"
	case s.Dynamics != nil:
		linkProgram = "rig dynamics (the façade's DynamicBandwidth)"
	}
	rigHooks := s.Hooks != nil && (s.Hooks.OnStart != nil || s.Hooks.OnTick != nil || s.Hooks.OnBlock != nil || s.Hooks.Annotate != nil)
	switch {
	case !known:
		return e, fmt.Errorf("harness: unknown system %q (registered: %v)", name, SystemNames())
	case s.Engine != EngineSequential && !sharded:
		return e, fmt.Errorf("harness: unknown Engine %d: pick EngineSequential or EngineSharded", s.Engine)
	case s.Stream != nil && (sharded || testbed):
		return e, fmt.Errorf("harness: stream mode requires the sequential engine on the emulated network, not the sharded engine or the testbed: viewer lag is read against one deterministic virtual clock; shards have many, and sockets follow the wall clock")
	case testbed && sharded:
		return e, fmt.Errorf("harness: testbed runs do not support the sharded engine: one wall clock cannot drive parallel shard clocks")
	case testbed && linkProgram != "":
		return e, fmt.Errorf("harness: testbed runs do not support %s: they change netem link bandwidths, and a socket run has no emulated links", linkProgram)
	case sharded && linkProgram != "":
		return e, fmt.Errorf("harness: sharded runs do not support %s: they are written against one engine and one netem, and each shard has its own, so sharded systems drive their dynamics per shard", linkProgram)
	case sharded && rigHooks:
		return e, fmt.Errorf("harness: sharded runs support only the Stop, OnResult, OnShardStart and OnShardTick hooks: OnStart, OnTick, OnBlock and Annotate take or read the single Rig a sharded run does not have")
	case sharded && e.BuildSharded == nil, !sharded && e.Build == nil:
		return e, fmt.Errorf("harness: system %q is not registered for %s execution: it has no builder for that rig shape", name, s.Engine)
	case s.Stream != nil && !e.Streams:
		return e, fmt.Errorf("harness: system %q does not support live streaming: its source cannot pace emission, so it would run one-shot and report meaningless lag", name)
	case s.Stream != nil && !positiveFinite(s.Stream.BitrateBps):
		return e, fmt.Errorf("harness: StreamSpec.BitrateBps must be positive and finite, got %v", s.Stream.BitrateBps)
	case s.Stream != nil && !positiveFinite(s.Stream.Duration):
		return e, fmt.Errorf("harness: StreamSpec.Duration must be positive and finite, got %v", s.Stream.Duration)
	case s.Stream != nil && !(s.Stream.PlayoutDepth < math.Inf(1)): // NaN included
		return e, fmt.Errorf("harness: StreamSpec.PlayoutDepth must be finite (<= 0 picks the default), got %v", s.Stream.PlayoutDepth)
	case s.Stream != nil && !(s.Stream.Warmup < math.Inf(1)):
		return e, fmt.Errorf("harness: StreamSpec.Warmup must be finite (0 picks the default, negative is off), got %v", s.Stream.Warmup)
	case s.Stream != nil && !(s.Stream.Drain < math.Inf(1)):
		return e, fmt.Errorf("harness: StreamSpec.Drain must be finite (<= 0 picks the default), got %v", s.Stream.Drain)
	case !positiveFinite(s.Workload.FileBytes) && (s.Stream == nil || positiveFinite(s.Workload.BlockSize)):
		return e, fmt.Errorf("%w, got %v", errFileBytes, s.Workload.FileBytes)
	case !positiveFinite(s.Workload.BlockSize):
		return e, fmt.Errorf("%w, got %v", errBlockSize, s.Workload.BlockSize)
	}
	return e, nil
}

// Sweep runs every spec across a pool of parallel workers and returns the
// results in spec order. Each worker owns one rig at a time — one engine per
// goroutine — so every run is bit-identical to a sequential RunSpec of the
// same spec: determinism is per seed, not per schedule. parallel <= 0 uses
// GOMAXPROCS.
func Sweep(specs []SweepSpec, parallel int) []*RunResult {
	results := make([]*RunResult, len(specs))
	// Workers write disjoint slots; Parallel's return publishes them.
	Parallel(len(specs), parallel, func(i int) { results[i] = RunSpec(specs[i]) })
	return results
}

// Parallel is the worker pool of every sweep: it runs job(0), …, job(n-1)
// on min(parallel, n) goroutines, handing out indices in order, and returns
// once every job has. parallel <= 0 uses GOMAXPROCS.
func Parallel(n, parallel int, job func(i int)) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for range min(parallel, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)); i < n; i = int(next.Add(1)) {
				job(i)
			}
		}()
	}
	wg.Wait()
}
