package harness

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"bulletprime/internal/netem"
	"bulletprime/internal/obs"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// EngineMode selects how a run executes: the classic single-threaded event
// loop, or the sharded multi-core engine.
type EngineMode int

const (
	// EngineSequential is the default single-threaded loop — one engine,
	// one goroutine, the bit-exact oracle every other mode is pinned to.
	EngineSequential EngineMode = iota
	// EngineSharded partitions the run into per-cluster shards executing
	// in parallel in lockstep lookahead windows (see sim.Group and
	// DESIGN.md §9). Requires a clustered topology and a system registered
	// with a sharded builder.
	EngineSharded
)

// String returns the mode's configuration name.
func (m EngineMode) String() string {
	switch m {
	case EngineSequential:
		return "sequential"
	case EngineSharded:
		return "sharded"
	}
	return "unknown"
}

// DefaultShards is the shard count when a spec leaves it unset. It is a
// fixed constant, never derived from the host's core count: the shard count
// shapes RNG streams and per-shard recompute coalescing, so it is part of
// the experiment's identity — two machines must agree on it to reproduce
// each other's results. Worker parallelism, which never affects results,
// is the knob that adapts to hardware.
const DefaultShards = 8

// ShardPlan maps a clustered topology onto shards: each shard owns a
// contiguous block of whole clusters, so every intra-cluster link (the only
// mutable, flow-carrying kind) belongs to exactly one shard.
type ShardPlan struct {
	Shards       int
	NodeShard    []int32 // owning shard per node
	ClusterShard []int32 // owning shard per cluster
	Lookahead    float64 // window length and Post floor (topology CrossLookahead)
}

// shardable reports why a topology cannot be split into shards, or nil:
// shards are blocks of whole clusters, and the lockstep windows need a
// latency floor between them.
func shardable(topo *netem.Topology) error {
	switch {
	case len(topo.Clusters) == 0:
		return errors.New("harness: the sharded engine needs a clustered topology " +
			"(this network builds no cluster assignment; pick a clustered preset)")
	case !(topo.CrossLookahead > 0) || math.IsInf(topo.CrossLookahead, 1):
		return errors.New("harness: the sharded engine needs a positive finite topology.CrossLookahead (the cross-cluster latency floor)")
	case !slices.IsSorted(topo.Clusters):
		return errors.New("harness: the sharded engine needs a non-decreasing cluster assignment (contiguous cluster blocks)")
	}
	return nil
}

// PlanShards derives a shard plan from the topology's cluster assignment.
// shards <= 0 picks DefaultShards; the count is capped at the cluster count
// (a shard must own at least one whole cluster). A topology that cannot be
// sharded is an error.
func PlanShards(topo *netem.Topology, shards int) (ShardPlan, error) {
	if err := shardable(topo); err != nil {
		return ShardPlan{}, err
	}
	numClusters := int(topo.Clusters[len(topo.Clusters)-1]) + 1
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > numClusters {
		shards = numClusters
	}
	p := ShardPlan{
		Shards:       shards,
		NodeShard:    make([]int32, len(topo.Clusters)),
		ClusterShard: make([]int32, numClusters),
		Lookahead:    topo.CrossLookahead,
	}
	for c := 0; c < numClusters; c++ {
		p.ClusterShard[c] = int32(c * shards / numClusters)
	}
	for i, c := range topo.Clusters {
		p.NodeShard[i] = p.ClusterShard[c]
	}
	return p, nil
}

// ShardSlot is one shard's private rig: its own engine, network emulator
// instance, and protocol runtime over the shared read-mostly topology. All
// flows and connections on a slot stay within its owned nodes (the Owns
// guard enforces it); the only cross-shard channel is the shard's Post.
type ShardSlot struct {
	ID       int
	Shard    *sim.Shard
	Eng      *sim.Engine
	Net      *netem.Network
	RT       *proto.Runtime
	Members  []netem.NodeID // owned nodes, ascending
	Clusters []int32        // owned cluster ids, ascending
	Done     map[netem.NodeID]sim.Time
}

// ShardedRig is the parallel counterpart of Rig: one topology, one shard
// group, and one ShardSlot per shard.
type ShardedRig struct {
	Topo   *netem.Topology
	Plan   ShardPlan
	Group  *sim.Group
	Slots  []*ShardSlot
	Master *sim.RNG
}

// NewShardedRig builds a sharded rig over the topology. Each slot's network
// gets its own RNG stream ("net#<shard>") so results are a function of
// (seed, shard count) and nothing else — in particular not of worker
// goroutine interleaving. A topology that cannot be sharded is an error.
func NewShardedRig(topo *netem.Topology, seed int64, shards int) (*ShardedRig, error) {
	plan, err := PlanShards(topo, shards)
	if err != nil {
		return nil, err
	}
	master := sim.NewRNG(seed)
	engines := make([]*sim.Engine, plan.Shards)
	for k := range engines {
		engines[k] = sim.NewEngine()
	}
	group := sim.NewGroup(engines, plan.Lookahead)
	rig := &ShardedRig{Topo: topo, Plan: plan, Group: group, Master: master}
	rig.Slots = make([]*ShardSlot, plan.Shards)
	for k := range rig.Slots {
		k32 := int32(k)
		net := netem.New(engines[k], topo, master.Stream(fmt.Sprintf("net#%d", k)))
		net.Owns = func(id netem.NodeID) bool { return plan.NodeShard[id] == k32 }
		rt := proto.NewRuntime(engines[k], net)
		rt.OwnershipHint = func(id netem.NodeID) string {
			return fmt.Sprintf("node %d belongs to shard %d, this runtime serves shard %d",
				id, plan.NodeShard[id], k32)
		}
		rig.Slots[k] = &ShardSlot{
			ID:    k,
			Shard: group.Shard(k),
			Eng:   engines[k],
			Net:   net,
			RT:    rt,
			Done:  make(map[netem.NodeID]sim.Time),
		}
	}
	for i, s := range plan.NodeShard {
		slot := rig.Slots[s]
		slot.Members = append(slot.Members, netem.NodeID(i))
	}
	for c, s := range plan.ClusterShard {
		slot := rig.Slots[s]
		slot.Clusters = append(slot.Clusters, int32(c))
	}
	return rig, nil
}

// InstallMeters hangs one data-rate meter on every slot's runtime and
// returns them in slot order; observers sum the per-shard rates at horizon
// barriers. Call it before the group starts. Meters only receive writes
// from their own slot's events, so they add no cross-shard coupling.
func (r *ShardedRig) InstallMeters(bucket float64, buckets int) []*trace.RateMeter {
	meters := make([]*trace.RateMeter, len(r.Slots))
	for k, slot := range r.Slots {
		meters[k] = trace.NewRateMeter(bucket, buckets)
		slot.RT.DataMeter = meters[k]
	}
	return meters
}

// Counters sums the slots' counters in slot order. After a completed
// Group.Run all slot clocks sit at its horizon; Now takes the furthest,
// which also covers a stopped run, where they may not.
func (r *ShardedRig) Counters() Counters {
	var c Counters
	for _, slot := range r.Slots {
		c.Now = max(c.Now, slot.Eng.Now())
		c.Completed += len(slot.Done)
		c.ControlBytes += slot.RT.ControlBytes
		c.DataBytes += slot.RT.DataBytes
		c.Traffic.Add(&slot.RT.Traffic)
	}
	return c
}

// ShardSystem is System on a sharded rig: Start seeds initial events on
// every shard's engine (it runs before the group starts, with all engines at
// time zero); Complete and DoneAt are read between group runs.
type ShardSystem = System

// shardBackend runs a spec on a ShardedRig, stepping the group from one
// tick horizon to the next: between steps every shard clock sits at exactly
// the same instant, so the tick hook reads a coherent cross-shard snapshot.
// Horizon stepping re-partitions the lockstep windows but never the event
// order (the merge key is window-independent), and there is no
// completion early-exit, so a run executes to the full deadline observed or
// not and the two are bit-identical.
type shardBackend struct {
	rig     *ShardedRig
	workers int
	// Each shard records into a private tracer (no cross-shard
	// synchronization on the hot path); collect merges them into tracer,
	// ordered by (time, shard, shard-local sequence).
	tracer       *obs.Tracer
	shardTracers []*obs.Tracer
	// tick, when set, fires at every horizon barrier, tickEvery apart.
	tickEvery sim.Time
	tick      func()
}

func newShardBackend(s *SweepSpec, topo *netem.Topology) (*shardBackend, error) {
	// Only the topology itself knows whether it can shard, and the network
	// registry is open, so sequential-only networks surface here.
	rig, err := NewShardedRig(topo, s.Seed, s.Shards)
	if err != nil {
		return nil, err
	}
	b := &shardBackend{rig: rig, workers: s.Workers, tracer: s.Tracer}
	if s.Tracer != nil {
		b.shardTracers = make([]*obs.Tracer, len(b.rig.Slots))
		for k, slot := range b.rig.Slots {
			b.shardTracers[k] = obs.NewTracer(s.Tracer.Capacity())
			slot.RT.Tracer = b.shardTracers[k]
		}
	}
	return b, nil
}

func (b *shardBackend) build(s *SweepSpec, e SystemEntry) System {
	return e.BuildSharded(ShardBuildCtx{Rig: b.rig, Workload: s.Workload})
}

func (b *shardBackend) observe(h *Hooks, sys System, _ sim.Time) {
	if h.OnShardStart != nil {
		h.OnShardStart(b.rig, sys)
	}
	if h.TickEvery > 0 && h.OnShardTick != nil {
		b.tickEvery = sim.Time(h.TickEvery)
		b.tick = func() { h.OnShardTick(b.rig, sys) }
	}
}

func (b *shardBackend) advance(_ System, deadline sim.Time, stop func() bool) bool {
	if b.tick == nil {
		return b.rig.Group.Run(deadline, b.workers, stop)
	}
	for t := b.tickEvery; ; t += b.tickEvery {
		if t > deadline {
			t = deadline
		}
		if b.rig.Group.Run(t, b.workers, stop) {
			return true
		}
		b.tick()
		if t >= deadline {
			return false
		}
	}
}

// collect merges per-shard results in shard order, and node order within a
// shard: CDF insertion order does not affect the curve, but this keeps even
// the internal sample layout reproducible.
func (b *shardBackend) collect(res *RunResult) {
	if b.tracer != nil {
		b.tracer.Absorb(b.shardTracers...)
	}
	res.setCounters(b.rig.Counters())
	res.PerNode = make(map[netem.NodeID]sim.Time)
	res.CDF = &trace.CDF{}
	for _, slot := range b.rig.Slots {
		ids := make([]netem.NodeID, 0, len(slot.Done))
		for id := range slot.Done {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			res.PerNode[id] = slot.Done[id]
			res.CDF.Add(float64(slot.Done[id]))
		}
	}
}
