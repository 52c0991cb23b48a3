// Package harness builds and runs the paper's experiments: it assembles a
// topology, dynamics schedule, and protocol sessions on one simulation
// engine, runs to completion, and renders the same curves the paper plots.
// Every figure of the evaluation section is a row of figures.go's table;
// bench_test.go and cmd/bulletctl run the rows.
package harness

import (
	"fmt"
	"math"

	"bulletprime/internal/netem"
	"bulletprime/internal/obs"
	"bulletprime/internal/proto"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
	"bulletprime/internal/stream"
	"bulletprime/internal/trace"
)

// System is the common face of one protocol session.
type System interface {
	Start()
	Complete() bool
	DoneAt() sim.Time
}

// Rig is one experiment instance: engine, emulated network, runtime.
type Rig struct {
	Eng     *sim.Engine
	Net     *netem.Network
	RT      *proto.Runtime
	Members []netem.NodeID
	Master  *sim.RNG

	// Done records per-node completion times as sessions call back.
	Done map[netem.NodeID]sim.Time

	// Annotate, when set, receives human-readable timeline annotations as
	// scenario events fire and flash-crowd waves start.
	Annotate func(text string)

	// Stream is the live-streaming tracker of a stream-mode run
	// (SweepSpec.Stream): it sees every block arrival first (blockArrived)
	// and aggregates lag/jitter/rebuffer metrics. Nil for one-shot runs.
	Stream *stream.Tracker

	// onBlock is Hooks.OnBlock, the observer's view of block arrivals.
	onBlock func(node netem.NodeID, blockID, count int)
}

// NewRig creates a rig over the given topology. The master RNG seeds every
// subsystem stream; protocol variants compared "under identical conditions"
// share the topology draw by sharing the seed.
func NewRig(topo *netem.Topology, seed int64) *Rig {
	eng := sim.NewEngine()
	master := sim.NewRNG(seed)
	net := netem.New(eng, topo, master.Stream("net"))
	rt := proto.NewRuntime(eng, net)
	members := make([]netem.NodeID, topo.N)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	return &Rig{
		Eng:     eng,
		Net:     net,
		RT:      rt,
		Members: members,
		Master:  master,
		Done:    make(map[netem.NodeID]sim.Time),
	}
}

// completed is every session's OnComplete: it records the node's
// completion time.
func (r *Rig) completed(id netem.NodeID) { r.Done[id] = r.Eng.Now() }

// blockArrived is every session's OnBlock, the rig's one door for block
// arrivals: the stream tracker sees a novel block first, then Hooks.OnBlock.
func (r *Rig) blockArrived(node netem.NodeID, blockID, count int) {
	if r.Stream != nil {
		r.Stream.OnBlock(node, blockID, count)
	}
	if r.onBlock != nil {
		r.onBlock(node, blockID, count)
	}
}

// CDF converts recorded completion times to a CDF.
func (r *Rig) CDF() *trace.CDF {
	c := &trace.CDF{}
	for _, t := range r.Done {
		c.Add(float64(t))
	}
	return c
}

// Workload describes the file being distributed.
type Workload struct {
	FileBytes float64
	BlockSize float64
}

// NumBlocks returns the block count for the workload.
func (w Workload) NumBlocks() int {
	n := int(math.Ceil(w.FileBytes / w.BlockSize))
	if n < 1 {
		n = 1
	}
	return n
}

// ProtoKind selects a protocol implementation.
type ProtoKind int

// The four systems of Figure 4/5/14.
const (
	KindBulletPrime ProtoKind = iota
	KindBullet
	KindBitTorrent
	KindSplitStream
)

// String returns the figure-legend name.
func (k ProtoKind) String() string {
	switch k {
	case KindBulletPrime:
		return "BulletPrime"
	case KindBullet:
		return "Bullet"
	case KindBitTorrent:
		return "BitTorrent"
	case KindSplitStream:
		return "SplitStream"
	}
	return "unknown"
}

// build instantiates the spec's system over one cohort of members, the first
// of which is the session source. The session starts at virtual time at, so
// that is when its receivers join the stream tracker as viewers, if the run
// has one. streamSuffix distinguishes the RNG streams of concurrent sessions
// (flash-crowd waves) on one rig; the empty suffix is the classic
// single-session stream. On a stream run the session's source is paced at
// the tracked stream's bitrate.
func (r *Rig) build(b SystemBuilder, s *SweepSpec, cohort []netem.NodeID, at float64, streamSuffix string) System {
	w := s.Workload
	swarm := proto.Swarm{Source: cohort[0], Members: cohort, NumBlocks: w.NumBlocks(), BlockSize: w.BlockSize,
		OnBlock: r.blockArrived, OnComplete: r.completed}
	if r.Stream != nil {
		for _, id := range cohort[1:] {
			r.Stream.Join(id, at)
		}
		swarm.StreamBps = r.Stream.Config().BitrateBps
	}
	return b(BuildCtx{Rig: r, Workload: w, CoreMut: s.CoreMut, Swarm: swarm, StreamSuffix: streamSuffix})
}

// RunResult captures one session's outcome.
type RunResult struct {
	Label    string
	CDF      *trace.CDF
	PerNode  map[netem.NodeID]sim.Time
	Finished bool
	// Stopped reports that Hooks.Stop ended the run before completion or
	// deadline (context cancellation); PerNode then holds a partial set.
	Stopped bool
	// EndedAt is the virtual clock when the run ended.
	EndedAt sim.Time
	// Overheads from the runtime's accounting, in total and per message
	// kind.
	ControlBytes float64
	DataBytes    float64
	Traffic      proto.Traffic
	// Err reports a run that could not execute at all — a spec SweepSpec.Check
	// refuses, or a rig that could not be built (socket bind, a topology the
	// sharded engine cannot partition). The other fields are then empty,
	// never partial or nil, and OnResult does not fire.
	Err error
	// Stream holds the live-streaming report of a stream-mode run
	// (SweepSpec.Stream): per-viewer lag, jitter, rebuffer, and goodput
	// aggregates. Nil for one-shot runs.
	Stream *stream.Report
}

// ControlOverhead returns control bytes as a fraction of all bytes.
func (r *RunResult) ControlOverhead() float64 {
	total := r.ControlBytes + r.DataBytes
	if total == 0 {
		return 0
	}
	return r.ControlBytes / total
}

// Hooks are optional observation and steering points for one run. All
// callbacks execute on the run's event loop; they must only read rig and
// system state (writing would break the bit-identity of observed and
// unobserved runs).
//
// There are two start/tick pairs because there are two rig shapes and the
// callbacks take the rig: benchmark/ is written against both signatures, so
// they are the public surface. RunSpec treats them as one hook.
type Hooks struct {
	// OnStart fires once after the rig and system are built, immediately
	// before System.Start.
	OnStart func(*Rig, System)
	// OnTick fires every TickEvery virtual seconds (first tick at
	// t=TickEvery) while the run is live — the observer's sampling clock.
	TickEvery float64
	OnTick    func(*Rig, System)
	// Stop is polled between event batches; returning true ends the run
	// early. RunResult.Stopped reports that it fired.
	Stop func() bool
	// OnBlock receives every novel block arrival on any member (node, block
	// id, blocks now held), after the stream tracker. Observers use it to
	// sample per-node block progress.
	OnBlock func(node netem.NodeID, blockID, count int)
	// Annotate is installed as the rig's Annotate.
	Annotate func(text string)
	// OnShardStart and OnShardTick are OnStart and OnTick on the sharded
	// engine. OnShardTick fires at a horizon barrier, when every shard's
	// clock has reached exactly the same instant — the only moments a
	// cross-shard snapshot is coherent. Both run on the caller's goroutine
	// while no shard worker is active. The other engines ignore them; the
	// sharded engine refuses OnStart, OnTick, OnBlock, and Annotate
	// (SweepSpec.Check).
	OnShardStart func(*ShardedRig, ShardSystem)
	OnShardTick  func(*ShardedRig, ShardSystem)
	// OnResult fires once with the finished RunResult, just before RunSpec
	// returns — the capture point archival layers use to persist sweep
	// cells as they finish. Under Sweep the callback runs on the worker
	// goroutine that owns the cell, so a hook shared across specs must be
	// goroutine-safe.
	OnResult func(*RunResult)
}

// Counters is one coherent reading of a run's clock and cumulative
// counters. Both rig shapes produce it — a sharded rig by summing its slots
// in slot order, so float sums are deterministic — and both RunResult and
// observers' samples are made from it.
type Counters struct {
	// Now is the virtual clock: the furthest any shard has run.
	Now sim.Time
	// Completed counts nodes that have finished.
	Completed int
	// Delivered wire bytes from the runtime's accounting.
	ControlBytes float64
	DataBytes    float64
	// Traffic is the runtime's delivered messages and bytes per kind.
	Traffic proto.Traffic
	// Layers is the engine, network and runtime work done so far.
	Layers obs.LayerCounters
}

// Counters reads the rig's clock and cumulative counters.
func (r *Rig) Counters() Counters {
	c := Counters{
		Now:          r.Eng.Now(),
		Completed:    len(r.Done),
		ControlBytes: r.RT.ControlBytes,
		DataBytes:    r.RT.DataBytes,
		Traffic:      r.RT.Traffic,
	}
	addLayers(&c.Layers, r.Eng, r.Net, r.RT)
	return c
}

// addLayers adds one engine's, network's and runtime's work counters to l.
// It reads the engine's fields, not Engine.Stats, which also reads the wall
// clock.
func addLayers(l *obs.LayerCounters, eng *sim.Engine, net *netem.Network, rt *proto.Runtime) {
	l.Events += eng.Executed
	l.Compactions += eng.Compactions
	l.Recomputes += net.Recomputes
	l.RatesRecomputed += net.FlowRatesRecomputed
	l.RatesSkipped += net.FlowRatesSkipped
	l.RatesReused += net.FlowRatesReused
	l.BytesServed += net.BytesServed
	l.Messages += rt.MessagesDelivered
}

// InstallMeters hangs a data-rate meter on the rig's runtime and returns
// it, in the slice shape ShardedRig.InstallMeters returns one per slot.
func (r *Rig) InstallMeters(bucket float64, buckets int) []*trace.RateMeter {
	r.RT.DataMeter = trace.NewRateMeter(bucket, buckets)
	return []*trace.RateMeter{r.RT.DataMeter}
}

// backend is everything that differs between the three ways a spec
// executes: the sequential engine, the same rig over real sockets, and the
// shard group. RunSpec owns the order of the steps and the result.
type backend interface {
	// build constructs the spec's system on the rig.
	build(s *SweepSpec, e SystemEntry) System
	// observe fires the rig shape's start hook and arranges its tick hook
	// every h.TickEvery up to the deadline: an engine event on one clock, a
	// horizon barrier on many.
	observe(h *Hooks, sys System, deadline sim.Time)
	// advance runs until the system completes, the clock reaches the
	// deadline, or stop reports true; it returns whether stop ended it.
	advance(sys System, deadline sim.Time, stop func() bool) (stopped bool)
	// collect fills the result's clock, counters and per-node outcome.
	collect(res *RunResult)
}

// A backend whose rig holds something outside the process's memory (the
// testbed's sockets) releases it in close; RunSpec calls it when the run
// ends.
type closer interface{ close() }

// newBackend builds the spec's rig on the drawn topology and installs the
// tracer and the rig-level hooks on it.
func newBackend(s *SweepSpec, topo *netem.Topology, h *Hooks) (backend, error) {
	switch {
	case s.Engine == EngineSharded:
		return newShardBackend(s, topo)
	case s.Testbed != nil:
		return newTestbedBackend(s, topo, h)
	}
	return newRigBackend(s, topo, h)
}

// errResult is the one shape of a run that never executed.
func errResult(s *SweepSpec, err error) *RunResult {
	return &RunResult{Label: s.Label, CDF: &trace.CDF{}, PerNode: map[netem.NodeID]sim.Time{}, Err: err}
}

// RunSpec executes one experiment spec, the same nine steps on every
// backend: check the spec, settle the deadline, draw the topology, build
// the rig with tracer and hooks installed, build the system (with the
// scenario's sessions and events, then the dynamics, where the rig has
// them), fire the start hook and arrange ticks, start, advance to the
// deadline, and assemble the result. Every sweep cell and every figure series go through
// here, so a sweep's rigs are bit-identical to single runs. Hooks only read
// state, so an observed run is bit-identical to an unobserved one with the
// same spec. A spec that cannot run comes back as RunResult.Err, never as a
// panic.
func RunSpec(s SweepSpec) *RunResult {
	entry, err := s.check()
	if err != nil {
		return errResult(&s, err)
	}
	h := s.Hooks
	if h == nil {
		h = &Hooks{}
	}
	deadline := s.Deadline
	if s.Stream != nil {
		sp := s.Stream.Normalized()
		s.Stream = &sp
		if end := streamEnd(sp, s.Scenario); end < deadline || deadline <= 0 {
			deadline = end
		}
		if s.Workload.FileBytes <= 0 {
			// Convenience for direct harness callers: derive the file from
			// the stream geometry (the façade always sets it explicitly).
			s.Workload.FileBytes = stream.Config{Options: sp, BlockSize: s.Workload.BlockSize}.ContentBytes()
		}
	}
	topo := s.TopoFn(sim.NewRNG(s.Seed).Stream("topo"))
	b, err := newBackend(&s, topo, h)
	if err != nil {
		return errResult(&s, err)
	}
	if c, ok := b.(closer); ok {
		defer c.close()
	}
	sys := b.build(&s, entry)
	b.observe(h, sys, deadline)
	sys.Start()
	stopped := b.advance(sys, deadline, h.Stop)
	res := &RunResult{Label: s.Label, Finished: !stopped && sys.Complete(), Stopped: stopped}
	b.collect(res)
	if h.OnResult != nil {
		h.OnResult(res)
	}
	return res
}

// rigBackend runs a spec on one Rig and one engine, flat out.
type rigBackend struct {
	rig *Rig
	// dynamics is SweepSpec.Dynamics compiled for the rig, or nil.
	dynamics *scenario.Program
}

func newRigBackend(s *SweepSpec, topo *netem.Topology, h *Hooks) (rigBackend, error) {
	var dyn *scenario.Program
	if s.Dynamics != nil {
		var err error
		if dyn, err = s.Dynamics.Compile(topo.N); err != nil {
			return rigBackend{}, fmt.Errorf("harness: dynamics: %w", err)
		}
		if dyn.Waves() != nil {
			return rigBackend{}, fmt.Errorf("harness: dynamics scenario %q has flash-crowd waves: a wave is a session, and sessions are built from SweepSpec.Scenario", dyn.Name())
		}
	}
	for _, p := range []*scenario.Program{s.Scenario, dyn} {
		if p == nil {
			continue
		}
		if err := p.Fits(topo); err != nil {
			return rigBackend{}, fmt.Errorf("harness: %w", err)
		}
	}
	rig := NewRig(topo, s.Seed)
	rig.RT.Tracer = s.Tracer
	rig.onBlock = h.OnBlock
	rig.Annotate = h.Annotate
	return rigBackend{rig, dyn}, nil
}

func (b rigBackend) build(s *SweepSpec, e SystemEntry) System {
	if s.Stream != nil {
		installStream(b.rig, *s.Stream, s.Workload.BlockSize, s.Tracer)
	}
	sys := buildSessions(b.rig, s, e.Build)
	if b.dynamics != nil {
		b.rig.ApplyScenario(b.dynamics)
	}
	return sys
}

func (b rigBackend) observe(h *Hooks, sys System, deadline sim.Time) {
	if h.OnStart != nil {
		h.OnStart(b.rig, sys)
	}
	if h.TickEvery > 0 && h.OnTick != nil {
		scheduleTicks(b.rig, sys, h, deadline)
	}
}

func (b rigBackend) advance(sys System, deadline sim.Time, stop func() bool) bool {
	return runUntilComplete(b.rig, sys, deadline, stop)
}

func (b rigBackend) collect(res *RunResult) {
	res.setCounters(b.rig.Counters())
	res.PerNode = b.rig.Done
	res.CDF = b.rig.CDF()
	if b.rig.Stream != nil {
		res.Stream = b.rig.Stream.Report(float64(res.EndedAt))
	}
}

// setCounters copies a final reading into the result.
func (r *RunResult) setCounters(c Counters) {
	r.EndedAt, r.ControlBytes, r.DataBytes, r.Traffic = c.Now, c.ControlBytes, c.DataBytes, c.Traffic
}

// scheduleTicks runs the hook's sampling clock as a self-rescheduling
// engine event, bounded by the run deadline. Tick events only read state,
// so they cannot perturb the run; they do keep the event queue non-empty
// until the deadline, which runUntilComplete's completion check makes
// harmless.
func scheduleTicks(rig *Rig, sys System, h *Hooks, deadline sim.Time) {
	var tick func()
	tick = func() {
		h.OnTick(rig, sys)
		if next := rig.Eng.Now() + sim.Time(h.TickEvery); next <= deadline {
			rig.Eng.Schedule(next, tick)
		}
	}
	if first := rig.Eng.Now() + sim.Time(h.TickEvery); first <= deadline {
		rig.Eng.Schedule(first, tick)
	}
}

// runUntilComplete paces the engine by its own event queue so completion
// (or a stop request) can end the run early: each iteration executes the
// next event timestamp (capped by the deadline) and re-checks Complete,
// which is O(1) for every protocol. Unlike fixed-width slicing, nearly-idle
// tails cost one iteration per remaining event rather than one per empty
// slice. It returns true when stop ended the run.
func runUntilComplete(rig *Rig, sys System, deadline sim.Time, stop func() bool) bool {
	for rig.Eng.Now() < deadline && !sys.Complete() {
		if stop != nil && stop() {
			return true
		}
		next, ok := rig.Eng.NextEventAt()
		if !ok || next > deadline {
			// Nothing more can happen before the deadline; advance the
			// clock there and stop.
			rig.Eng.RunUntil(deadline)
			return false
		}
		rig.Eng.RunUntil(next)
	}
	return false
}
