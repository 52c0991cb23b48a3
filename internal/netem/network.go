package netem

import (
	"fmt"
	"math"
	"slices"

	"bulletprime/internal/sim"
)

// DefaultRecomputeInterval is the minimum virtual time between fair-share
// recomputations. Flow churn within an interval is coalesced into one
// recomputation, bounding emulator cost; newly started transfers run at a
// conservative provisional rate until the next recomputation, which mirrors
// the convergence time of real TCP after cross-traffic changes.
const DefaultRecomputeInterval = 0.025

// Typed-event kinds dispatched through Network.OnEvent. The network is the
// single sim.Handler for the whole emulator: flow completions carry their
// *Flow as payload, so scheduling an event allocates nothing.
const (
	evRecompute int32 = iota
	evFlowComplete
)

// Network emulates the configured topology for a set of flows. It is driven
// entirely by the simulation engine; all methods must be called from engine
// callbacks (or before Run).
type Network struct {
	Eng  *sim.Engine
	Topo *Topology

	// RecomputeInterval throttles fair-share recomputation (seconds).
	RecomputeInterval float64

	// Owns, when set, restricts NewFlow to endpoints this network instance
	// is responsible for. Sharded runs give each shard its own Network over
	// a shared topology; every flow must stay inside one shard, because the
	// waterfill only sees the flows of its own instance. Cross-shard
	// endpoints panic — such traffic belongs in mailbox posts.
	Owns func(NodeID) bool

	// FullRecompute forces the original global waterfill over every active
	// flow on each recomputation. The default (false) re-waterfills only the
	// connected components of the flow-sharing graph touched since the last
	// pass; flows in clean components keep their rates and completion events.
	FullRecompute bool

	rng     *sim.RNG
	nextID  int
	dirty   bool
	lastRun sim.Time
	haveRun bool

	// busyOut/busyIn count busy flows per access endpoint, maintained on
	// busy transitions so provisional rates cost O(1) instead of a scan of
	// every flow.
	busyOut []int32
	busyIn  []int32

	// Incremental state: the maintained flow↔resource sharing graph
	// (partition into connected components), the flows whose busy/open state
	// changed since it was last brought up to date, and the resource keys
	// dirtied since the last recomputation. A key is one side of a node's
	// access link; core links dirty the access endpoints of their flows,
	// which places every affected flow in a dirty component.
	part       partition
	churned    []*Flow
	dirtyOut   endpointSet
	dirtyIn    endpointSet
	dirtyAll   bool
	dirtyComps []int32 // dirty component slots, reused across recomputations

	// Waterfiller scratch, reused across recomputations so the steady
	// state allocates nothing (see fairShare).
	fsRates     []float64
	fsCaps      []float64
	fsFrozen    []bool
	fsResources []resource
	fsResIdx    map[int]int
	fsFlowRes   [][]int
	fsPairCount map[int]int
	fsCapOrder  []int32
	fsGrp       []int32
	fsSatHeap   []satEntry

	// Recomputes counts fair-share recomputations, for tests and profiling.
	Recomputes uint64
	// FlowRatesRecomputed counts flow rates assigned by the waterfiller
	// across all recomputations; FlowRatesSkipped counts active flow rates
	// left untouched because their component was clean. Together they
	// quantify how much work incremental recomputation avoids.
	FlowRatesRecomputed uint64
	FlowRatesSkipped    uint64
	// BytesServed is the total payload bytes fully serialized by all flows.
	BytesServed float64
}

// New creates a network emulator on the given engine and topology. The rng
// drives loss-induced latency jitter; pass a dedicated stream.
func New(eng *sim.Engine, topo *Topology, rng *sim.RNG) *Network {
	return &Network{
		Eng:               eng,
		Topo:              topo,
		RecomputeInterval: DefaultRecomputeInterval,
		rng:               rng,
		busyOut:           make([]int32, topo.N),
		busyIn:            make([]int32, topo.N),
		fsResIdx:          make(map[int]int),
		fsPairCount:       make(map[int]int),
	}
}

// OnEvent dispatches the network's typed engine events; it is part of the
// engine plumbing, not the public emulator API.
func (n *Network) OnEvent(kind int32, payload any) {
	switch kind {
	case evRecompute:
		n.recompute()
	case evFlowComplete:
		payload.(*Flow).complete()
	}
}

// Completer receives flow-completion callbacks without a per-transfer
// closure: the transport passes itself plus an opaque arg (typically the
// pooled message being serialized) to Flow.StartTo.
type Completer interface {
	FlowDone(f *Flow, arg any)
}

// Flow is one direction of a transport connection: a FIFO server that
// serializes one segment (message) at a time at the max-min fair rate. The
// transport layer queues messages and starts the next transfer from the done
// callback.
type Flow struct {
	net  *Network
	id   int
	src  NodeID
	dst  NodeID
	open bool

	inPart  bool // held by a component of net.part
	churned bool // queued in net.churned

	established sim.Time // connection birth, drives the slow-start ramp
	ssBinding   bool     // slow-start cap was binding at last recompute

	busy       bool
	remaining  float64
	rate       float64
	lastUpdate sim.Time
	completion sim.EventRef
	done       func()
	doneTo     Completer
	doneArg    any

	// Served is the total bytes fully serialized on this flow.
	Served float64
}

// NewFlow opens a unidirectional flow src→dst. The slow-start ramp starts
// now (connection establishment).
func (n *Network) NewFlow(src, dst NodeID) *Flow {
	if src == dst {
		panic("netem: flow endpoints must differ")
	}
	if n.Owns != nil && (!n.Owns(src) || !n.Owns(dst)) {
		panic(fmt.Sprintf("netem: flow %d→%d crosses a shard boundary; "+
			"cross-shard traffic must travel as timestamped mailbox posts, not flows", src, dst))
	}
	n.nextID++
	f := &Flow{
		net:         n,
		id:          n.nextID,
		src:         src,
		dst:         dst,
		open:        true,
		established: n.Eng.Now(),
	}
	return f
}

// Src returns the sending endpoint.
func (f *Flow) Src() NodeID { return f.src }

// Dst returns the receiving endpoint.
func (f *Flow) Dst() NodeID { return f.dst }

// Busy reports whether a segment is currently being serialized.
func (f *Flow) Busy() bool { return f.busy }

// Rate returns the currently allocated service rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// setBusy flips the busy flag and maintains the per-endpoint busy counters.
func (f *Flow) setBusy(b bool) {
	if f.busy == b {
		return
	}
	f.busy = b
	if b {
		f.net.busyOut[f.src]++
		f.net.busyIn[f.dst]++
	} else {
		f.net.busyOut[f.src]--
		f.net.busyIn[f.dst]--
	}
}

// Close removes the flow. Any in-progress transfer is abandoned without its
// done callback firing.
func (f *Flow) Close() {
	if !f.open {
		return
	}
	f.open = false
	f.setBusy(false)
	f.done = nil
	f.doneTo = nil
	f.doneArg = nil
	f.completion.Cancel()
	f.completion = sim.EventRef{}
	f.net.flowChurn(f)
}

// Start begins serializing a segment of the given size; done fires when the
// last byte leaves the sender. Exactly one segment may be in service; the
// caller owns the queue. Propagation delay is the caller's concern (use
// Topology.OneWayDelay), which lets the transport enforce in-order delivery.
func (f *Flow) Start(bytes float64, done func()) {
	f.start(bytes)
	f.done = done
}

// StartTo is the allocation-free form of Start: on completion the network
// calls to.FlowDone(f, arg) instead of a closure. The transport layer uses
// it with the pooled message node as arg.
func (f *Flow) StartTo(bytes float64, to Completer, arg any) {
	f.start(bytes)
	f.doneTo = to
	f.doneArg = arg
}

func (f *Flow) start(bytes float64) {
	if !f.open {
		panic("netem: Start on closed flow")
	}
	if f.busy {
		panic("netem: Start on busy flow")
	}
	if bytes <= 0 {
		bytes = 1
	}
	f.setBusy(true)
	f.remaining = bytes
	f.done = nil
	f.doneTo = nil
	f.doneArg = nil
	f.lastUpdate = f.net.Eng.Now()
	// Provisional rate until the next recomputation: the flow's static cap
	// split evenly with currently active flows on the shared access links.
	f.rate = f.net.provisionalRate(f)
	f.scheduleCompletion()
	f.net.flowChurn(f)
}

// DeliveryJitter returns a possibly-zero extra latency for a message of the
// given size on this flow's path, modelling TCP retransmission stalls: with
// probability equal to the path loss rate the message waits one RTO.
func (f *Flow) DeliveryJitter(bytes float64) float64 {
	p := f.net.Topo.CoreLoss(f.src, f.dst)
	if p <= 0 {
		return 0
	}
	if f.net.rng.Float64() < p {
		return RTO(f.net.Topo.RTT(f.src, f.dst))
	}
	return 0
}

// cap returns the flow's current per-flow rate cap: dedicated core link
// bandwidth, Mathis loss cap, and slow-start ramp.
func (f *Flow) capNow(now sim.Time) (cap float64, ssBinding bool) {
	t := f.net.Topo
	cap = t.CoreBW(f.src, f.dst)
	if cap <= 0 {
		cap = math.Inf(1)
	}
	rtt := t.RTT(f.src, f.dst)
	if m := MathisCap(rtt, t.CoreLoss(f.src, f.dst)); m < cap {
		cap = m
	}
	if ss := SlowStartCap(float64(now-f.established), rtt); ss < cap {
		cap = ss
		ssBinding = true
	}
	return cap, ssBinding
}

// completeEps is the residual-byte threshold below which a transfer counts
// as finished. Floating-point rounding in rate*dt arithmetic leaves
// sub-byte residues; without this clamp the reschedule delay can fall below
// the clock's representable resolution and the completion event re-fires at
// the same instant forever.
const completeEps = 1e-3

func (f *Flow) scheduleCompletion() {
	f.completion.Cancel()
	f.completion = sim.EventRef{}
	if !f.busy {
		return
	}
	if f.rate <= 0 {
		// Starved; a future recomputation will reschedule.
		return
	}
	dt := f.remaining / f.rate
	f.completion = f.net.Eng.AfterEvent(dt, f.net, evFlowComplete, f)
}

func (f *Flow) complete() {
	if !f.busy || !f.open {
		return
	}
	now := f.net.Eng.Now()
	f.advance(now)
	if f.remaining > completeEps {
		// A recomputation moved the goalposts; reschedule.
		f.scheduleCompletion()
		return
	}
	f.setBusy(false)
	f.completion = sim.EventRef{}
	done, doneTo, doneArg := f.done, f.doneTo, f.doneArg
	f.done = nil
	f.doneTo = nil
	f.doneArg = nil
	f.net.flowChurn(f)
	if done != nil {
		done()
	} else if doneTo != nil {
		doneTo.FlowDone(f, doneArg)
	}
}

// advance applies service at the current rate for time elapsed since
// lastUpdate.
func (f *Flow) advance(now sim.Time) {
	if !f.busy {
		f.lastUpdate = now
		return
	}
	dt := float64(now - f.lastUpdate)
	if dt > 0 && f.rate > 0 {
		served := f.rate * dt
		if served > f.remaining {
			served = f.remaining
		}
		f.remaining -= served
		f.Served += served
		f.net.BytesServed += served
	}
	f.lastUpdate = now
}

// provisionalRate estimates a fair rate for a newly started transfer without
// a full recomputation: the flow's cap divided among active flows sharing
// its access links. The per-endpoint busy counters (which include f itself,
// marked busy by start) make this O(1).
func (n *Network) provisionalRate(f *Flow) float64 {
	outN := int(n.busyOut[f.src])
	inN := int(n.busyIn[f.dst])
	cap, _ := f.capNow(n.Eng.Now())
	r := cap
	if s := n.Topo.AccessOut[f.src] / float64(outN); s < r {
		r = s
	}
	if s := n.Topo.AccessIn[f.dst] / float64(inN); s < r {
		r = s
	}
	if math.IsInf(r, 1) {
		r = 1e12
	}
	return r
}

// markDirty schedules a fair-share recomputation, coalescing requests within
// RecomputeInterval of the previous one.
func (n *Network) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	at := n.Eng.Now()
	if n.haveRun {
		if earliest := n.lastRun + sim.Time(n.RecomputeInterval); earliest > at {
			at = earliest
		}
	}
	n.Eng.ScheduleEvent(at, n, evRecompute, nil)
}

// touch marks the flow's access-link endpoints dirty: the next recomputation
// re-waterfills every component reachable from them.
func (n *Network) touch(f *Flow) {
	n.dirtyOut.add(n.Topo.N, f.src)
	n.dirtyIn.add(n.Topo.N, f.dst)
}

// flowChurn records that f started, completed, or closed: the next
// recomputation re-derives the components f belongs to or joins, and f's
// component is dirty.
func (n *Network) flowChurn(f *Flow) {
	if !f.churned {
		f.churned = true
		n.churned = append(n.churned, f)
	}
	n.touch(f)
	n.markDirty()
}

// BandwidthChanged must be called after mutating topology bandwidths at
// runtime so allocated rates are refreshed. It invalidates every component;
// callers that know which link changed should prefer LinkChanged.
func (n *Network) BandwidthChanged() {
	n.dirtyAll = true
	n.markDirty()
}

// LinkChanged records a bandwidth change on the core link src→dst (or on
// either endpoint's access link) and schedules a recomputation of just the
// components sharing capacity with that link.
func (n *Network) LinkChanged(src, dst NodeID) {
	n.dirtyOut.add(n.Topo.N, src)
	n.dirtyIn.add(n.Topo.N, dst)
	n.markDirty()
}

// LinkRef names one mutated link for batched change reporting. A core link
// is (Src, Dst); an access link leaves the far side negative: {Src: i,
// Dst: -1} is node i's outbound access link, {Src: -1, Dst: i} its inbound.
type LinkRef struct {
	Src, Dst NodeID
}

// OutAccess refers to node i's outbound access link.
func OutAccess(i NodeID) LinkRef { return LinkRef{Src: i, Dst: -1} }

// InAccess refers to node i's inbound access link.
func InAccess(i NodeID) LinkRef { return LinkRef{Src: -1, Dst: i} }

// LinksChanged records a batch of link mutations applied at one instant —
// one scenario tick touching k links — and schedules a single recomputation
// covering their components. Equivalent to k LinkChanged calls, but the
// dirty set is accumulated and the recompute scheduled exactly once.
func (n *Network) LinksChanged(links []LinkRef) {
	if len(links) == 0 {
		return
	}
	for _, l := range links {
		if l.Src >= 0 {
			n.dirtyOut.add(n.Topo.N, l.Src)
		}
		if l.Dst >= 0 {
			n.dirtyIn.add(n.Topo.N, l.Dst)
		}
	}
	n.markDirty()
}

// recompute performs the max-min fair allocation with per-flow caps and
// updates in-progress transfers. In incremental mode only the components of
// the sharing graph dirtied since the last pass are re-waterfilled.
func (n *Network) recompute() {
	n.dirty = false
	n.haveRun = true
	now := n.Eng.Now()
	n.lastRun = now
	n.Recomputes++

	n.part.update(n.Topo.N, n.churned)
	clear(n.churned)
	n.churned = n.churned[:0]
	if n.FullRecompute || n.dirtyAll {
		n.recomputeFull(now)
		return
	}
	n.recomputeIncremental(now)
}

// waterfillGroup advances and re-waterfills one group of flows — the whole
// active set or a single component — and reports whether any slow-start cap
// was binding. In incremental mode, ramping flows re-dirty their components
// so the ramp keeps advancing even without flow churn.
func (n *Network) waterfillGroup(flows []*Flow, now sim.Time) (anySS bool) {
	for _, f := range flows {
		f.advance(now)
	}
	rates, anySS := n.fairShare(flows, now)
	n.FlowRatesRecomputed += uint64(len(flows))
	for i, f := range flows {
		f.rate = rates[i]
		f.scheduleCompletion()
	}
	if anySS && !n.FullRecompute {
		for _, f := range flows {
			if f.ssBinding {
				n.touch(f)
			}
		}
	}
	return anySS
}

// recomputeFull is the original global pass: every active flow is advanced
// and re-waterfilled, regardless of what changed.
func (n *Network) recomputeFull(now sim.Time) {
	n.dirtyAll = false
	n.dirtyOut.reset()
	n.dirtyIn.reset()

	active := n.part.allFlows()
	if len(active) == 0 {
		return
	}
	if n.waterfillGroup(active, now) {
		n.markDirty()
	}
}

// recomputeIncremental re-waterfills only the dirty components of the
// sharing graph. Flows in clean components keep their current rates and
// completion events; max-min allocations decompose exactly over connected
// components because no resource spans two of them.
func (n *Network) recomputeIncremental(now sim.Time) {
	part := &n.part
	// The reverse index makes dirty detection O(|dirty endpoints|), not
	// O(active flows); endpoints with no active flow resolve to -1.
	dirty := n.dirtyComps[:0]
	mark := func(ci int32) {
		if ci >= 0 && !part.comps[ci].dirty {
			part.comps[ci].dirty = true
			dirty = append(dirty, ci)
		}
	}
	for _, node := range n.dirtyOut.ids {
		mark(part.bySrc[node])
	}
	for _, node := range n.dirtyIn.ids {
		mark(part.byDst[node])
	}
	n.dirtyOut.reset()
	n.dirtyIn.reset()
	// Ascending lowest flow id is the order a from-scratch partition lists
	// its components in; waterfilling in it keeps the engine sequence
	// numbers scheduleCompletion draws, and so same-instant event order,
	// independent of which slots the components happen to occupy.
	slices.SortFunc(dirty, func(a, b int32) int {
		return part.comps[a].flows[0].id - part.comps[b].flows[0].id
	})

	anySS := false
	recomputed := 0
	for _, ci := range dirty {
		c := &part.comps[ci]
		c.dirty = false
		recomputed += len(c.flows)
		if n.waterfillGroup(c.flows, now) {
			anySS = true
		}
	}
	n.dirtyComps = dirty[:0]
	n.FlowRatesSkipped += uint64(part.total - recomputed)
	if anySS {
		// Keep the slow-start ramp advancing even without flow churn.
		n.markDirty()
	}
}

// endpointSet is a set of node ids that costs nothing to empty: a per-node
// mark, allocated on first use, plus the list of marked ids that reset
// walks.
type endpointSet struct {
	mark []bool
	ids  []NodeID
}

func (s *endpointSet) add(nodes int, id NodeID) {
	if s.mark == nil {
		s.mark = make([]bool, nodes)
	}
	if !s.mark[id] {
		s.mark[id] = true
		s.ids = append(s.ids, id)
	}
}

func (s *endpointSet) reset() {
	for _, id := range s.ids {
		s.mark[id] = false
	}
	s.ids = s.ids[:0]
}

// resource is a shared link (access in/out, or a core link carrying more
// than one flow) during fair-share computation.
type resource struct {
	cap       float64
	nUnfrozen int
	frozenUse float64
	flows     []int // indices into the active-flow slice
}

// fairShare computes max-min fair rates for the active flows using
// progressive filling with per-flow caps: every unfrozen flow's rate rises
// with a common water level; a flow freezes when the level reaches its cap,
// and when a shared link saturates all its unfrozen flows freeze at the
// current level. All working storage is engine-lifetime scratch reused
// across calls; the returned slice is valid until the next call.
func (n *Network) fairShare(active []*Flow, now sim.Time) (rates []float64, anySS bool) {
	nf := len(active)
	rates = sizeFloats(&n.fsRates, nf)
	caps := sizeFloats(&n.fsCaps, nf)
	frozen := sizeBools(&n.fsFrozen, nf)

	resources := n.fsResources[:0]
	resIdx := n.fsResIdx
	clear(resIdx)
	if cap(n.fsFlowRes) < nf {
		n.fsFlowRes = append(n.fsFlowRes[:cap(n.fsFlowRes)], make([][]int, nf-cap(n.fsFlowRes))...)
	}
	flowRes := n.fsFlowRes[:nf] // resource indices per flow
	for i := range flowRes {
		flowRes[i] = flowRes[i][:0]
	}

	addToResource := func(key int, capacity float64, fi int) {
		ri, ok := resIdx[key]
		if !ok {
			ri = len(resources)
			if ri < cap(resources) {
				resources = resources[:ri+1]
				resources[ri] = resource{cap: capacity, flows: resources[ri].flows[:0]}
			} else {
				resources = append(resources, resource{cap: capacity})
			}
			resIdx[key] = ri
		}
		r := &resources[ri]
		r.nUnfrozen++
		r.flows = append(r.flows, fi)
		flowRes[fi] = append(flowRes[fi], ri)
	}

	// Group flows by ordered pair: a core link with 2+ flows becomes a
	// shared resource; with a single flow it is just a cap (cheaper).
	pairCount := n.fsPairCount
	clear(pairCount)
	for _, f := range active {
		pairCount[int(f.src)*n.Topo.N+int(f.dst)]++
	}

	// Resource keys: [0,N) out-access, [N,2N) in-access, [2N,...) core pairs.
	nn := n.Topo.N
	for i, f := range active {
		c, ss := f.capNow(now)
		f.ssBinding = ss
		anySS = anySS || ss
		caps[i] = c
		addToResource(int(f.src), n.Topo.AccessOut[f.src], i)
		addToResource(nn+int(f.dst), n.Topo.AccessIn[f.dst], i)
		pair := int(f.src)*nn + int(f.dst)
		if pairCount[pair] > 1 {
			if bw := n.Topo.CoreBW(f.src, f.dst); bw > 0 {
				addToResource(2*nn+pair, bw, i)
			}
		}
	}
	n.fsResources = resources

	// The progressive filling below is event-driven rather than
	// scan-per-round, but it reproduces the original O(n²) scans
	// bit-for-bit: the same freeze order, the same float accumulation
	// order, the same tie-breaks.
	//
	//   - The next cap event is read from a (cap, flow-index)-sorted order
	//     instead of a min-scan; the set of flows within the eps band and
	//     their ascending-index freeze order are reconstructed exactly.
	//   - The next saturation event comes from a lazy min-heap of
	//     (sat, resource-index) entries. Every mutation of a resource
	//     pushes a fresh entry, so the heap always contains each live
	//     resource's current saturation level; stale entries are discarded
	//     by recomputing sat (bit-identical floats) at pop time. The
	//     lexicographic order reproduces the scan's lowest-index tie-break.
	unfrozen := nf
	level := 0.0

	satHeap := n.fsSatHeap[:0]
	pushSat := func(ri int32) {
		r := &resources[ri]
		if r.nUnfrozen == 0 {
			return
		}
		headroom := r.cap - r.frozenUse
		if headroom < 0 {
			headroom = 0
		}
		satHeap = satHeapPush(satHeap, satEntry{sat: headroom / float64(r.nUnfrozen), ri: ri})
	}
	for ri := range resources {
		pushSat(int32(ri))
	}

	freeze := func(fi int, rate float64) {
		if frozen[fi] {
			return
		}
		frozen[fi] = true
		rates[fi] = rate
		unfrozen--
		for _, ri := range flowRes[fi] {
			r := &resources[ri]
			r.nUnfrozen--
			r.frozenUse += rate
			pushSat(int32(ri))
		}
	}

	capOrder := sizeInts(&n.fsCapOrder, nf)
	for i := range capOrder {
		capOrder[i] = int32(i)
	}
	slices.SortFunc(capOrder, func(a, b int32) int {
		if caps[a] != caps[b] {
			if caps[a] < caps[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	capPtr := 0

	const eps = 1e-9
	for unfrozen > 0 {
		// Next cap event: the first unfrozen flow in cap order.
		for capPtr < nf && frozen[capOrder[capPtr]] {
			capPtr++
		}
		minCap := math.Inf(1)
		if capPtr < nf {
			minCap = caps[capOrder[capPtr]]
		}
		// Next resource saturation event: discard stale heap entries (the
		// resource drained, or its sat moved since the entry was pushed).
		minSat := math.Inf(1)
		satRes := -1
		for len(satHeap) > 0 {
			top := satHeap[0]
			r := &resources[top.ri]
			if r.nUnfrozen == 0 {
				satHeap = satHeapPop(satHeap)
				continue
			}
			headroom := r.cap - r.frozenUse
			if headroom < 0 {
				headroom = 0
			}
			if sat := headroom / float64(r.nUnfrozen); sat != top.sat {
				satHeap = satHeapPop(satHeap)
				continue
			}
			minSat = top.sat
			satRes = int(top.ri)
			break
		}

		if minCap <= minSat+eps && !math.IsInf(minCap, 1) {
			level = minCap
			// Collect the unfrozen flows inside the eps band (contiguous
			// in cap order) and freeze them in ascending flow index, as
			// the original full scan did.
			grp := n.fsGrp[:0]
			for p := capPtr; p < nf; p++ {
				fi := capOrder[p]
				if frozen[fi] {
					continue
				}
				if caps[fi] > minCap+eps {
					break
				}
				grp = append(grp, fi)
			}
			insertionSortInts(grp)
			for _, fi := range grp {
				freeze(int(fi), caps[fi])
			}
			n.fsGrp = grp[:0]
			continue
		}
		if satRes >= 0 && !math.IsInf(minSat, 1) {
			level = minSat
			r := &resources[satRes]
			for _, fi := range r.flows {
				if !frozen[fi] {
					rate := level
					if caps[fi] < rate {
						rate = caps[fi]
					}
					freeze(fi, rate)
				}
			}
			continue
		}
		// No finite cap and no saturable resource: unconstrained flows.
		for i := 0; i < nf; i++ {
			if !frozen[i] {
				freeze(i, 1e12)
			}
		}
	}
	_ = level
	n.fsSatHeap = satHeap[:0]
	return rates, anySS
}

// satEntry is one lazy saturation-heap entry; see fairShare.
type satEntry struct {
	sat float64
	ri  int32
}

func satLess(a, b satEntry) bool {
	if a.sat != b.sat {
		return a.sat < b.sat
	}
	return a.ri < b.ri
}

func satHeapPush(h []satEntry, e satEntry) []satEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !satLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func satHeapPop(h []satEntry) []satEntry {
	nh := len(h) - 1
	h[0] = h[nh]
	h = h[:nh]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < nh && satLess(h[l], h[small]) {
			small = l
		}
		if r < nh && satLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return h
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// insertionSortInts sorts ascending without allocating; eps bands are tiny.
func insertionSortInts(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// sizeInts resizes a reusable int32 scratch slice without zeroing.
func sizeInts(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}

// sizeFloats resizes a reusable float scratch slice, zeroing the active
// prefix.
func sizeFloats(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	out := (*s)[:n]
	for i := range out {
		out[i] = 0
	}
	*s = out
	return out
}

// sizeBools resizes a reusable bool scratch slice, zeroing the active
// prefix.
func sizeBools(s *[]bool, n int) []bool {
	if cap(*s) < n {
		*s = make([]bool, n)
	}
	out := (*s)[:n]
	for i := range out {
		out[i] = false
	}
	*s = out
	return out
}
