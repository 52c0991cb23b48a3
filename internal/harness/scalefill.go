package harness

import (
	"fmt"
	"sort"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// scalefill is the sharded engine's reference workload: every node pulls
// the file from its own cluster in fillRounds sequential intra-cluster
// transfers, while per-shard dynamics halve and restore cluster links every
// 200 ms (the same churn shape as the Scale5000 preset test). Two things
// make it a real equivalence probe rather than a trivially parallel loop:
//
//   - Round sizes depend on a token counter fed by cross-shard posts — every
//     finished round posts a token to the next shard (delivery now +
//     lookahead), and a receiving shard's future round sizes shift by the
//     token count. Any misordering or loss of cross events changes
//     completion times, so the W=1 vs W=K equivalence tests have teeth.
//   - All flow and dynamics randomness comes from per-shard RNG streams, so
//     results are a pure function of (seed, shard count).
//
// It registers as "scalefill"; the facade exposes it as ProtocolScalefill.
const (
	fillRounds = 3

	fkStart int32 = iota + 1 // payload *fillNode: begin its first round
	fkTick                   // per-shard dynamics tick
	fkToken                  // cross-shard token
)

type scalefillSystem struct {
	rig   *ShardedRig
	w     Workload
	fills []*fillShard
	total int
}

type fillShard struct {
	sys  *scalefillSystem
	slot *ShardSlot
	rng  *sim.RNG // flow endpoints and sizes
	dyn  *sim.RNG // dynamics draws

	tokens uint64 // cross-shard tokens received; shifts future round sizes
	halved []bool // per owned-cluster index: links currently halved
	doneN  int
	doneAt sim.Time
}

type fillNode struct {
	fs    *fillShard
	id    netem.NodeID
	base  int // first node of the cluster
	size  int // cluster size
	round int
}

func init() {
	RegisterSystem("scalefill", SystemEntry{BuildSharded: buildScalefill})
}

func buildScalefill(ctx ShardBuildCtx) ShardSystem {
	sys := &scalefillSystem{rig: ctx.Rig, w: ctx.Workload}
	for _, slot := range ctx.Rig.Slots {
		fs := &fillShard{
			sys:    sys,
			slot:   slot,
			rng:    ctx.Rig.Master.Stream(fmt.Sprintf("scalefill#%d", slot.ID)),
			dyn:    ctx.Rig.Master.Stream(fmt.Sprintf("scalefill-dyn#%d", slot.ID)),
			halved: make([]bool, len(slot.Clusters)),
		}
		slot.Shard.SetHandler(fs)
		sys.fills = append(sys.fills, fs)
		sys.total += len(slot.Members)
	}
	return sys
}

// Start seeds every node's first round at a jittered offset and each
// shard's dynamics clock. It runs before the group does, with all engines
// at time zero.
func (s *scalefillSystem) Start() {
	for _, fs := range s.fills {
		for _, cl := range fs.slot.Clusters {
			base, size := clusterSpan(s.rig.Topo.Clusters, cl)
			for i := 0; i < size; i++ {
				n := &fillNode{fs: fs, id: netem.NodeID(base + i), base: base, size: size}
				fs.slot.Eng.ScheduleEvent(sim.Time(fs.rng.Uniform(0, 0.05)), fs, fkStart, n)
			}
		}
		fs.slot.Eng.ScheduleEvent(0.2, fs, fkTick, nil)
	}
}

// clusterSpan locates cluster cl's contiguous node range. Cluster
// assignments are non-decreasing (PlanShards validates this), so both
// bounds are binary searches.
func clusterSpan(clusters []int32, cl int32) (base, size int) {
	base = sort.Search(len(clusters), func(i int) bool { return clusters[i] >= cl })
	end := sort.Search(len(clusters), func(i int) bool { return clusters[i] > cl })
	return base, end - base
}

func (s *scalefillSystem) Complete() bool {
	done := 0
	for _, fs := range s.fills {
		done += fs.doneN
	}
	return done == s.total
}

func (s *scalefillSystem) DoneAt() sim.Time {
	var at sim.Time
	for _, fs := range s.fills {
		if fs.doneAt > at {
			at = fs.doneAt
		}
	}
	return at
}

// OnEvent is both the shard's local event target and its cross-event
// handler; the kind says which.
func (fs *fillShard) OnEvent(kind int32, payload any) {
	switch kind {
	case fkStart:
		payload.(*fillNode).startRound()
	case fkTick:
		fs.tick()
	case fkToken:
		fs.tokens++
	default:
		panic(fmt.Sprintf("scalefill: unknown event kind %d", kind))
	}
}

// startRound opens one intra-cluster flow toward the node. The size factor
// folds in the shard's token count, which is what couples shards: get the
// cross-event merge wrong and every downstream round changes size.
func (n *fillNode) startRound() {
	fs := n.fs
	size := (fs.sys.w.FileBytes / fillRounds) * (1 + float64(float64(fs.tokens%8)*0.05))
	src := netem.NodeID(n.base + fs.rng.Intn(n.size))
	if src == n.id {
		src = netem.NodeID(n.base + (int(src)-n.base+1)%n.size)
	}
	if fs.slot.RT.Tracer != nil {
		fs.slot.RT.Trace("promote", n.id, src, fmt.Sprintf("round %d", n.round))
	}
	f := fs.slot.Net.NewFlow(src, n.id)
	f.Start(size, func() {
		fs.slot.RT.AddData(fs.slot.Eng.Now(), size)
		f.Close()
		n.round++
		fs.roundDone()
		if n.round < fillRounds {
			n.startRound()
		} else {
			n.complete()
		}
	})
}

// roundDone posts the coupling token to the next shard. A single shard has
// no peers to couple with.
func (fs *fillShard) roundDone() {
	k := fs.sys.rig.Plan.Shards
	if k <= 1 {
		return
	}
	dst := (fs.slot.ID + 1) % k
	at := fs.slot.Eng.Now() + sim.Time(fs.sys.rig.Group.Lookahead())
	fs.slot.Shard.Post(dst, at, fkToken, nil)
}

func (n *fillNode) complete() {
	fs := n.fs
	now := fs.slot.Eng.Now()
	fs.slot.Done[n.id] = now
	fs.doneN++
	if now > fs.doneAt {
		fs.doneAt = now
	}
}

// tick halves or restores one owned cluster's intra-cluster links — the
// Scale5000 preset's churn, run independently per shard so link mutation
// stays within shard ownership.
func (fs *fillShard) tick() {
	if len(fs.slot.Clusters) > 0 {
		ci := fs.dyn.Intn(len(fs.slot.Clusters))
		cl := fs.slot.Clusters[ci]
		factor := 0.5
		if fs.halved[ci] {
			factor = 2.0
		}
		fs.halved[ci] = !fs.halved[ci]
		base, size := clusterSpan(fs.sys.rig.Topo.Clusters, cl)
		topo := fs.sys.rig.Topo
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				if i == j {
					continue
				}
				src, dst := netem.NodeID(base+i), netem.NodeID(base+j)
				topo.SetCoreBW(src, dst, topo.CoreBW(src, dst)*factor)
				fs.slot.Net.LinkChanged(src, dst)
			}
		}
	}
	fs.slot.Eng.AfterEvent(0.2, fs, fkTick, nil)
}
