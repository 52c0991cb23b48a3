package netem

import (
	"fmt"
	"slices"
	"testing"

	"bulletprime/internal/sim"
)

// naiveComponents is the from-scratch builder the maintained partition must
// equal: label propagation to a fixpoint over the open-and-busy flows of
// all (which is in ascending id). Components come out in order of their
// lowest flow id, each holding its flows in ascending id.
func naiveComponents(all []*Flow) [][]*Flow {
	var active []*Flow
	for _, f := range all {
		if f.open && f.busy {
			active = append(active, f)
		}
	}
	label := make([]int, len(active))
	for i := range label {
		label[i] = i
	}
	for changed := true; changed; {
		changed = false
		for i, f := range active {
			for j, g := range active[:i] {
				if (f.src == g.src || f.dst == g.dst) && label[i] != label[j] {
					m := min(label[i], label[j])
					label[i], label[j] = m, m
					changed = true
				}
			}
		}
	}
	var comps [][]*Flow
	slot := make(map[int]int)
	for i, f := range active {
		ci, ok := slot[label[i]]
		if !ok {
			ci = len(comps)
			slot[label[i]] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], f)
	}
	return comps
}

// checkPartition asserts the from-scratch-equivalence invariant: the same
// components holding the same flows in the same order, the endpoint indexes
// and the running total consistent with them, and the slot bookkeeping
// (free list, membership flags) sound.
func checkPartition(net *Network, all []*Flow) error {
	p := &net.part
	want := naiveComponents(all)

	var slots []int32
	free := 0
	for ci := range p.comps {
		if len(p.comps[ci].flows) > 0 {
			slots = append(slots, int32(ci))
		} else {
			free++
		}
		if p.comps[ci].dirty {
			return fmt.Errorf("slot %d left dirty after the recomputation", ci)
		}
	}
	slices.SortFunc(slots, func(a, b int32) int { return p.comps[a].flows[0].id - p.comps[b].flows[0].id })
	if len(slots) != len(want) {
		return fmt.Errorf("%d components, from-scratch build has %d", len(slots), len(want))
	}
	total := 0
	bySrc := make([]int32, net.Topo.N)
	byDst := make([]int32, net.Topo.N)
	for i := range bySrc {
		bySrc[i], byDst[i] = -1, -1
	}
	for k, ci := range slots {
		got := p.comps[ci].flows
		if !slices.Equal(got, want[k]) {
			return fmt.Errorf("component %d (slot %d): flows %v, from-scratch build has %v", k, ci, flowIDs(got), flowIDs(want[k]))
		}
		total += len(got)
		for _, f := range got {
			bySrc[f.src], byDst[f.dst] = ci, ci
		}
	}
	if p.total != total {
		return fmt.Errorf("total %d, components hold %d", p.total, total)
	}
	if !slices.Equal(p.bySrc, bySrc) || !slices.Equal(p.byDst, byDst) {
		return fmt.Errorf("endpoint index disagrees with the components:\nbySrc %v want %v\nbyDst %v want %v", p.bySrc, bySrc, p.byDst, byDst)
	}
	if len(p.free) != free {
		return fmt.Errorf("free list holds %d slots, %d are empty", len(p.free), free)
	}
	for _, ci := range p.free {
		if len(p.comps[ci].flows) != 0 {
			return fmt.Errorf("free list names occupied slot %d", ci)
		}
	}
	for _, f := range all {
		if f.inPart != (f.open && f.busy) {
			return fmt.Errorf("flow %d: inPart %v but open %v busy %v", f.id, f.inPart, f.open, f.busy)
		}
	}
	return nil
}

func flowIDs(flows []*Flow) []int {
	ids := make([]int, len(flows))
	for i, f := range flows {
		ids[i] = f.id
	}
	return ids
}

// completion is one entry of a run's externally visible schedule.
type completion struct {
	id int
	at sim.Time
}

// partitionChurn is the randomized workload of the partition oracle test.
// Every decision draws from one rng inside engine callbacks, so a single
// reordered same-instant completion changes every later draw. Even seeds
// run on equal links with two transfer sizes, so that components finish
// flows at the same instant and the order they were waterfilled in shows.
type partitionChurn struct {
	eng *sim.Engine
	net *Network
	rng *sim.RNG
	all []*Flow // every flow ever opened, ascending id
	log []completion
	n   int
	// Nodes [0, giant) are one region, the rest islands of churnIsland
	// nodes; a flow stays inside its source's region.
	giant int
	equal bool

	streams int    // flows kept restarting
	chains  int    // independent tick chains
	step    func() // runs after every engine event, if set
}

const churnIsland = 5

// newPartitionChurn is the 14-node workload of the oracle tests: one region,
// ten streams, one tick chain.
func newPartitionChurn(seed int64) *partitionChurn {
	w := newChurn(seed, 14, 14)
	w.streams, w.chains = 10, 1
	return w
}

func newChurn(seed int64, n, giant int) *partitionChurn {
	w := &partitionChurn{eng: sim.NewEngine(), rng: sim.NewRNG(seed), n: n, giant: giant, equal: seed%2 == 0}
	topo := NewTopology(w.n)
	for i := 0; i < w.n; i++ {
		topo.AccessIn[i] = w.rng.Uniform(2e5, 2e6)
		topo.AccessOut[i] = w.rng.Uniform(2e5, 2e6)
		for j := 0; j < w.n; j++ {
			if i != j {
				topo.SetCoreBW(NodeID(i), NodeID(j), w.rng.Uniform(1e5, 2e6))
				topo.SetCoreDelay(NodeID(i), NodeID(j), w.rng.Uniform(0.001, 0.05))
				if w.equal {
					topo.SetCoreBW(NodeID(i), NodeID(j), 2e6)
					topo.SetCoreDelay(NodeID(i), NodeID(j), 0.01)
				}
			}
		}
	}
	if w.equal {
		topo.SetUniformAccess(1e6, 1e6, 0)
	}
	w.net = New(w.eng, topo, w.rng.Stream("net"))
	return w
}

func (w *partitionChurn) pair() (NodeID, NodeID) {
	src := w.rng.Intn(w.n)
	lo, size := 0, w.giant
	if src >= w.giant {
		lo, size = src-(src-w.giant)%churnIsland, churnIsland
	}
	dst := lo + w.rng.Intn(size)
	if src == dst {
		dst = lo + (dst-lo+1)%size
	}
	return NodeID(src), NodeID(dst)
}

func (w *partitionChurn) open() *Flow {
	f := w.net.NewFlow(w.pair())
	w.all = append(w.all, f)
	return f
}

// stream keeps one flow restarting: sizes from a few hundred bytes (done
// well inside one recompute interval) to hundreds of kilobytes, sometimes
// an idle gap before the restart (its component may split meanwhile),
// sometimes a close and a replacement elsewhere (a new id, new endpoints,
// which may bridge two components).
func (w *partitionChurn) stream(f *Flow) {
	size := w.rng.Uniform(2e4, 3e5)
	if w.rng.Float64() < 0.3 {
		size = w.rng.Uniform(200, 2000)
	}
	if w.equal {
		size = 5e4 * float64(1+w.rng.Intn(2))
	}
	f.Start(size, func() {
		w.log = append(w.log, completion{f.id, w.eng.Now()})
		switch u := w.rng.Float64(); {
		case u < 0.15:
			f.Close()
			w.stream(w.open())
		case u < 0.4:
			w.eng.After(w.rng.Uniform(0, 0.2), func() {
				if f.open {
					w.stream(f)
				}
			})
		default:
			w.stream(f)
		}
	})
}

// tick is the outside world: link changes with no churn at all, closes in
// mid-transfer, an access link that drops to nothing (its flows starve) and
// comes back, a change that names every access link (what a caller that
// cannot name a link reports), and one-segment flows that start and finish
// between two recomputations.
func (w *partitionChurn) tick() {
	topo := w.net.Topo
	switch u := w.rng.Float64(); {
	case u < 0.35:
		src, dst := w.pair()
		topo.SetCoreBW(src, dst, topo.CoreBW(src, dst)*w.rng.Uniform(0.6, 1.5))
		w.net.LinkChanged(src, dst)
	case u < 0.5:
		var batch []LinkRef
		for k := 1 + w.rng.Intn(3); k > 0; k-- {
			src, dst := w.pair()
			topo.SetCoreBW(src, dst, topo.CoreBW(src, dst)*w.rng.Uniform(0.6, 1.5))
			batch = append(batch, LinkRef{Src: src, Dst: dst})
		}
		i := NodeID(w.rng.Intn(w.n))
		topo.AccessOut[i] *= w.rng.Uniform(0.8, 1.2)
		w.net.LinksChanged(append(batch, OutAccess(i)))
	case u < 0.75:
		var busy []*Flow
		for _, f := range w.all {
			if f.open && f.busy {
				busy = append(busy, f)
			}
		}
		if len(busy) > 0 {
			busy[w.rng.Intn(len(busy))].Close()
			w.stream(w.open())
		}
	case u < 0.82:
		i := NodeID(w.rng.Intn(w.n))
		if bw := topo.AccessOut[i]; bw > 0 {
			topo.AccessOut[i] = 0
			w.net.LinksChanged([]LinkRef{OutAccess(i)})
			w.eng.After(w.rng.Uniform(0.03, 0.2), func() {
				topo.AccessOut[i] = bw
				w.net.LinksChanged([]LinkRef{OutAccess(i)})
			})
		}
	case u < 0.85:
		every := make([]LinkRef, 0, 2*w.n)
		for i := 0; i < w.n; i++ {
			every = append(every, OutAccess(NodeID(i)), InAccess(NodeID(i)))
		}
		w.net.LinksChanged(every)
	default:
		f := w.open()
		f.Start(w.rng.Uniform(100, 1000), func() {
			w.log = append(w.log, completion{f.id, w.eng.Now()})
			f.Close()
		})
	}
	w.eng.After(w.rng.Uniform(0.01, 0.12), w.tick)
}

func (w *partitionChurn) run(until sim.Time) {
	for k := 0; k < w.streams; k++ {
		w.stream(w.open())
	}
	for k := 0; k < w.chains; k++ {
		w.eng.After(0.05, w.tick)
	}
	stepUntil(w.eng, until, w.step)
}

// stepUntil runs the engine's events up to until one at a time, calling
// after (if set) once each has fired.
func stepUntil(eng *sim.Engine, until sim.Time, after func()) {
	for {
		at, ok := eng.NextEventAt()
		if !ok || at > until {
			return
		}
		eng.Step()
		if after != nil {
			after()
		}
	}
}

// TestPartitionMatchesFromScratchUnderChurn is the oracle for the maintained
// partition. After every recomputation of a randomized churn run it must
// equal a naive from-scratch build over the open-and-busy flows; and the
// run's schedule — every (flow id, completion time) pair, in order — and
// counters must equal those of the algorithm this one replaced, which
// forgot the partition at every change and rebuilt it over the whole
// id-sorted active set. The second run gets that by emptying the partition
// after every engine event and queueing every active flow as newly busy.
func TestPartitionMatchesFromScratchUnderChurn(t *testing.T) {
	merges, splits := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		w := newPartitionChurn(seed)
		recomputes := uint64(0)
		prev := map[*Flow]int{}
		w.step = func() {
			if w.net.Recomputes == recomputes {
				return
			}
			recomputes = w.net.Recomputes
			if err := checkPartition(w.net, w.all); err != nil {
				t.Fatalf("seed %d t=%v recompute %d: %v", seed, w.eng.Now(), recomputes, err)
			}
			// Count the structural events the run is here to exercise.
			now := map[*Flow]int{}
			for ci, c := range naiveComponents(w.all) {
				for i, f := range c {
					now[f] = ci
					if pf, ok := prev[f]; ok && i > 0 {
						if pg, ok := prev[c[0]]; ok && pg != pf {
							merges++
						}
					}
				}
			}
			for f, pf := range prev {
				for g, pg := range prev {
					cf, okf := now[f]
					cg, okg := now[g]
					if okf && okg && pf == pg && cf != cg {
						splits++
					}
				}
			}
			prev = now
		}
		w.run(6)

		ref := newPartitionChurn(seed)
		ref.step = func() {
			ref.net.part = partition{}
			ref.net.churned = ref.net.churned[:0]
			for _, f := range ref.all {
				f.inPart = false
				f.churned = f.open && f.busy
				if f.churned {
					ref.net.churned = append(ref.net.churned, f)
				}
			}
		}
		ref.run(6)

		if len(w.log) < 100 {
			t.Fatalf("seed %d: only %d completions; the run is too quiet to mean anything", seed, len(w.log))
		}
		if !slices.Equal(w.log, ref.log) {
			for i := range w.log {
				if i >= len(ref.log) || w.log[i] != ref.log[i] {
					t.Fatalf("seed %d: completion %d is %+v, full rebuild has %+v", seed, i, w.log[i], ref.log[min(i, len(ref.log)-1)])
				}
			}
			t.Fatalf("seed %d: %d completions, full rebuild has %d", seed, len(w.log), len(ref.log))
		}
		a, b := w.net, ref.net
		if a.Recomputes != b.Recomputes || a.FlowRatesRecomputed != b.FlowRatesRecomputed ||
			a.FlowRatesSkipped != b.FlowRatesSkipped || a.BytesServed != b.BytesServed {
			t.Fatalf("seed %d: counters %d/%d/%d/%v, full rebuild has %d/%d/%d/%v", seed,
				a.Recomputes, a.FlowRatesRecomputed, a.FlowRatesSkipped, a.BytesServed,
				b.Recomputes, b.FlowRatesRecomputed, b.FlowRatesSkipped, b.BytesServed)
		}
		if a.FlowRatesSkipped == 0 {
			t.Fatalf("seed %d: no rate was ever skipped; every recomputation was global", seed)
		}
	}
	if merges == 0 || splits == 0 {
		t.Fatalf("churn produced %d component merges and %d splits; the run must have both", merges, splits)
	}
}

// benchChurn returns the netem benchmarks' unit of work: finish one of the
// flows (all mid-transfer, far from done), restart the one that finished an
// interval earlier, and run the one recomputation that follows.
func benchChurn(b *testing.B, eng *sim.Engine, net *Network, flows []*Flow) func(i int) {
	var idle *Flow
	return func(i int) {
		f := flows[(i*7919)%len(flows)]
		f.completion.Cancel()
		f.remaining = 0
		f.complete()
		if idle != nil {
			idle.Start(1e15, nil)
		}
		idle = f
		before := net.Recomputes
		eng.RunUntil(eng.Now() + sim.Time(DefaultRecomputeInterval))
		if net.Recomputes != before+1 {
			b.Fatalf("%d recomputations in one interval, want 1", net.Recomputes-before)
		}
	}
}

// BenchmarkPartitionChurn measures partition maintenance where it is the
// whole cost: 250 disjoint components of 25 flows each (a 25-way fan-in per
// receiver); every recomputation sees one flow finished and the flow that
// finished an interval earlier started again. Only those two flows'
// components are dissolved, rebuilt and re-waterfilled; the other 248 are
// not looked at, so ns/recompute is independent of their number.
func BenchmarkPartitionChurn(b *testing.B) {
	const comps, fan = 250, 25
	eng := sim.NewEngine()
	topo := CompactClusteredTopology(comps*(fan+1), fan+1, 1)
	net := New(eng, topo, sim.NewRNG(1).Stream("net"))
	flows := make([]*Flow, 0, comps*fan)
	for c := 0; c < comps; c++ {
		base := c * (fan + 1)
		for i := 1; i <= fan; i++ {
			f := net.NewFlow(NodeID(base+i), NodeID(base))
			f.Start(1e15, nil)
			flows = append(flows, f)
		}
	}
	eng.RunUntil(100) // past slow start: nothing re-dirties itself
	churn := benchChurn(b, eng, net, flows)
	for i := 0; i < 4*comps; i++ {
		churn(i) // let every scratch slice reach its steady size
	}
	skipped := net.FlowRatesSkipped
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
	b.ReportMetric(float64(net.FlowRatesSkipped-skipped)/float64(b.N), "rates_skipped/op")
}
