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

	// RecomputeInterval throttles fair-share recomputation (seconds). It is
	// also how far past a component's earliest completion a refill arms
	// completion events (see armComponent), so it must not be raised while
	// flows are in service: an event left unarmed under the old value could
	// come due before the recomputation the new value allows.
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
	// pass; flows in clean components keep their rates and whatever
	// completion events they have armed.
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
	fsKeys      []int32 // 2N access keys, allocated by the first fill
	fsResources []resource
	fsFlowRes   []int32
	fsResFlows  []int32
	fsPairSeen  []pairMark
	fsPairNext  []int32
	fsCapOrder  []capEntry
	fsGrp       []int32
	fsSatHeap   []satEntry
	fsDue       []sim.Time // per refilled flow: when it finishes at its new rate
	fsFirst     []sim.Time // per component slot: its earliest due time (global pass)

	// Recomputes counts fair-share recomputations, for tests and profiling.
	Recomputes uint64
	// FlowRatesRecomputed counts flow rates assigned by the waterfiller
	// across all recomputations; FlowRatesSkipped counts active flow rates
	// left untouched because their component was clean. Together they
	// quantify how much work incremental recomputation avoids.
	FlowRatesRecomputed uint64
	FlowRatesSkipped    uint64
	// CompletionsArmed counts the completion events refills scheduled;
	// CompletionsDeferred counts the busy, unstarved flows a refill left
	// without one because a later refill is certain to come first.
	CompletionsArmed    uint64
	CompletionsDeferred uint64
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
	net *Network
	id  int
	src NodeID
	dst NodeID

	open      bool
	busy      bool
	inPart    bool // held by a component of net.part
	churned   bool // queued in net.churned
	ssBinding bool // slow-start cap was binding at last recompute

	// Path constants, sampled from the topology when the flow opens and
	// again whenever Topology.epoch has moved past pathEpoch (samplePath).
	pathEpoch uint32
	rtt       float64
	loss      float64
	mathis    float64 // MathisCap(rtt, loss)

	established sim.Time // connection birth, drives the slow-start ramp

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
	f.samplePath()
	return f
}

// samplePath reads the flow's path constants from the topology.
func (f *Flow) samplePath() {
	t := f.net.Topo
	f.pathEpoch = t.epoch
	f.rtt = t.RTT(f.src, f.dst)
	f.loss = t.CoreLoss(f.src, f.dst)
	f.mathis = MathisCap(f.rtt, f.loss)
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
	f.disarm()
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
	if f.pathEpoch != f.net.Topo.epoch {
		f.samplePath()
	}
	if f.loss <= 0 {
		return 0
	}
	if f.net.rng.Float64() < f.loss {
		return RTO(f.rtt)
	}
	return 0
}

// capNow returns the flow's current per-flow rate cap: dedicated core link
// bandwidth (mutable at run time, so read per call), Mathis loss cap, and
// slow-start ramp.
func (f *Flow) capNow(now sim.Time) (cap float64, ssBinding bool) {
	t := f.net.Topo
	if f.pathEpoch != t.epoch {
		f.samplePath()
	}
	cap = t.CoreBW(f.src, f.dst)
	if cap <= 0 {
		cap = math.Inf(1)
	}
	if f.mathis < cap {
		cap = f.mathis
	}
	if ss := SlowStartCap(float64(now-f.established), f.rtt); ss < cap {
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

// never is the due time of a flow that is idle or starved: no completion to
// arm until a later recomputation gives it a rate.
const never = sim.Forever

// dueAt returns when the segment in service finishes at the current rate,
// now being the instant remaining was last brought up to date.
func (f *Flow) dueAt(now sim.Time) sim.Time {
	if !f.busy || f.rate <= 0 {
		return never
	}
	return now + sim.Time(f.remaining/f.rate)
}

func (f *Flow) disarm() {
	f.completion.Cancel()
	f.completion = sim.EventRef{}
}

func (f *Flow) arm(due sim.Time) {
	f.completion = f.net.Eng.ScheduleEvent(due, f.net, evFlowComplete, f)
}

// scheduleCompletion arms f's completion at its current rate, whatever the
// rest of its component is doing: the provisional rate of a fresh start, or
// the rest of a segment whose event fired early.
func (f *Flow) scheduleCompletion() {
	f.disarm()
	if due := f.dueAt(f.net.Eng.Now()); due != never {
		f.arm(due)
	}
}

func (f *Flow) complete() {
	if !f.busy || !f.open {
		return
	}
	now := f.net.Eng.Now()
	f.advance(now)
	if f.remaining > completeEps {
		// The event fired before the segment was through; reschedule. If it
		// was its component's earliest, deferred flows were counting on the
		// refill a completion brings (see armComponent), so ask for one.
		f.scheduleCompletion()
		f.net.touch(f)
		f.net.markDirty()
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
// so the ramp keeps advancing even without flow churn. Every flow is left
// disarmed, its due time at the new rate in due (fill scratch, valid until
// the next call); the caller arms, component by component.
func (n *Network) waterfillGroup(flows []*Flow, now sim.Time) (due []sim.Time, anySS bool) {
	for _, f := range flows {
		f.advance(now)
	}
	rates, anySS := n.fairShare(flows, now)
	n.FlowRatesRecomputed += uint64(len(flows))
	due = sized(&n.fsDue, len(flows))
	for i, f := range flows {
		f.rate = rates[i]
		f.disarm()
		due[i] = f.dueAt(now)
	}
	if anySS && !n.FullRecompute {
		for _, f := range flows {
			if f.ssBinding {
				n.touch(f)
			}
		}
	}
	return due, anySS
}

// armComponent schedules the completions of one freshly refilled component
// that can fire before the component is refilled again: those due no later
// than RecomputeInterval after its earliest. The rest get no engine event.
// That is safe because the earliest completion — or any start, close or link
// change that comes sooner — dirties an endpoint of the component, markDirty
// then runs a recomputation no later than RecomputeInterval after it, and
// that recomputation refills every flow the component still has (whichever
// components they are in by then, each is reached from a dirtied endpoint).
// DESIGN.md §3 has the contract.
func (n *Network) armComponent(flows []*Flow, due []sim.Time) {
	first := never
	for _, d := range due {
		first = min(first, d)
	}
	horizon := first + sim.Time(n.RecomputeInterval)
	for i, f := range flows {
		n.armWithin(f, due[i], horizon)
	}
}

// armWithin arms f if it is due by the horizon of its component.
func (n *Network) armWithin(f *Flow, due, horizon sim.Time) {
	switch {
	case due == never:
	case due <= horizon:
		f.arm(due)
		n.CompletionsArmed++
	default:
		n.CompletionsDeferred++
	}
}

// recomputeFull is the original global pass: every active flow is advanced
// and re-waterfilled, regardless of what changed.
func (n *Network) recomputeFull(now sim.Time) {
	n.dirtyAll = false
	n.dirtyOut.reset()
	n.dirtyIn.reset()

	part := &n.part
	active := part.allFlows()
	if len(active) == 0 {
		return
	}
	due, anySS := n.waterfillGroup(active, now)
	// One fill, but still one horizon per component: the recomputation a
	// completion brings may be an incremental one, which refills only that
	// completion's component. Arming in the fill's own order keeps the
	// engine's sequence draws in ascending flow id.
	first := sized(&n.fsFirst, len(part.comps))
	for ci := range first {
		first[ci] = never
	}
	for i, f := range active {
		ci := part.bySrc[f.src]
		first[ci] = min(first[ci], due[i])
	}
	interval := sim.Time(n.RecomputeInterval)
	for i, f := range active {
		n.armWithin(f, due[i], first[part.bySrc[f.src]]+interval)
	}
	if anySS {
		n.markDirty()
	}
}

// recomputeIncremental re-waterfills only the dirty components of the
// sharing graph. Flows in clean components keep their current rates and
// whatever completion events they have armed; max-min allocations decompose
// exactly over connected components because no resource spans two of them.
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
		due, ss := n.waterfillGroup(c.flows, now)
		n.armComponent(c.flows, due)
		anySS = anySS || ss
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

// resource is one shared link of a fill: an access link (out or in), or a
// core link carrying two or more of the fill's flows.
type resource struct {
	cap       float64
	frozenUse float64
	sat       float64 // level at which it saturates now; see level
	nUnfrozen int32
	// ord ranks resources by first encounter over the fill's flows — flow i
	// meets its out-access link (3i), its in-access link (3i+1), then its
	// shared core link (3i+2) — and breaks ties between equal sats.
	ord        int32
	key        int32 // the access key it stands for; -1 for a core link
	start, end int32 // its flows, ascending, are fsResFlows[start:end]
}

// level is the water level at which the resource's remaining headroom is
// used up by its unfrozen flows (nUnfrozen > 0).
func (r *resource) level() float64 {
	headroom := r.cap - r.frozenUse
	if headroom < 0 {
		headroom = 0
	}
	return headroom / float64(r.nUnfrozen)
}

// pairMark is the duplicate-destination detector of one out-access
// resource's flow list: in-access resource b was last seen in group grp, on
// flow last.
type pairMark struct {
	grp, last int32
}

// capEntry is one flow of the cap order.
type capEntry struct {
	cap float64
	fi  int32
}

func capCmp(a, b capEntry) int {
	switch {
	case a.cap < b.cap:
		return -1
	case a.cap > b.cap:
		return 1
	}
	return int(a.fi - b.fi)
}

// fillEps is the band within which the fill treats levels as equal: a cap
// within fillEps above the next saturation level still freezes first, and
// caps within fillEps of each other freeze together.
const fillEps = 1e-9

// fairShare computes max-min fair rates for the active flows by progressive
// filling with per-flow caps: every unfrozen flow's rate rises with a common
// water level; a flow freezes at its cap when the level reaches it, and when
// a shared link saturates all its unfrozen flows freeze at the current
// level. All working storage is engine-lifetime scratch reused across calls;
// the returned slice is valid until the next call.
//
// The result is pinned bit for bit (scanFairShare in the tests is the
// scan-per-round filler it must equal; DESIGN.md §3 has the contract): the
// next cap event is the first unfrozen flow in (cap, index) order, and every
// unfrozen flow within eps of it freezes with it in ascending index; the next
// saturation event is the live resource with the lowest (sat, ord).
func (n *Network) fairShare(active []*Flow, now sim.Time) (rates []float64, anySS bool) {
	nf := len(active)
	topo := n.Topo
	rates = sized(&n.fsRates, nf)
	caps := sized(&n.fsCaps, nf)
	frozen := sized(&n.fsFrozen, nf)
	clear(frozen)
	flowRes := sized(&n.fsFlowRes, 3*nf) // per flow: out, in, pair (or -1)
	order := n.fsCapOrder[:0]

	// keys maps an access key (node id for out-access, N + node id for
	// in-access) to the fill's resource for it. An entry counts only if the
	// resource it names is one of this fill's and names the key back, so
	// whatever earlier fills left behind is never cleared.
	if n.fsKeys == nil {
		n.fsKeys = make([]int32, 2*topo.N)
	}
	keys := n.fsKeys
	res := n.fsResources[:0]
	access := func(key int32, capacity float64, ord int) int32 {
		if ri := keys[key]; int(ri) < len(res) && res[ri].key == key {
			return ri
		}
		ri := int32(len(res))
		keys[key] = ri
		res = append(res, resource{cap: capacity, key: key, ord: int32(ord)})
		return ri
	}

	// Access resources, in first-encounter order, and each flow's cap.
	for i, f := range active {
		c, ss := f.capNow(now)
		f.ssBinding = ss
		anySS = anySS || ss
		caps[i] = c
		outCap, inCap := topo.AccessOut[f.src], topo.AccessIn[f.dst]
		// A cap event needs cap <= minSat+eps, and it takes along the flows
		// whose caps are within eps of the event's; no sat exceeds its
		// link's capacity. A cap further than that above either access
		// link never freezes its flow and stays out of the cap order.
		if c <= max(0, min(outCap, inCap))+fillEps+fillEps {
			order = append(order, capEntry{c, int32(i)})
		}
		out := access(int32(f.src), outCap, 3*i)
		in := access(int32(topo.N)+int32(f.dst), inCap, 3*i+1)
		res[out].nUnfrozen++
		res[in].nUnfrozen++
		flowRes[3*i], flowRes[3*i+1], flowRes[3*i+2] = out, in, -1
	}
	nAccess := len(res)

	// Their flow lists: counts to offsets, then one scatter in flow order,
	// which leaves every list ascending.
	resFlows := sized(&n.fsResFlows, 3*nf)
	pos := int32(0)
	for ri := range res {
		r := &res[ri]
		r.start, r.end = pos, pos
		pos += r.nUnfrozen
	}
	for i := range active {
		for _, ri := range flowRes[3*i : 3*i+2] {
			r := &res[ri]
			resFlows[r.end] = int32(i)
			r.end++
		}
	}

	// A core link carrying two or more flows is a resource too; with one it
	// is just a cap. Two flows share an ordered pair when they sit on the
	// same out-access resource and have the same in-access resource, so each
	// out-access list is scanned for repeated in-access resources. next
	// chains a shared pair's flows in ascending order from its first.
	seen := sized(&n.fsPairSeen, nAccess)
	clear(seen)
	next := sized(&n.fsPairNext, nf)
	for a := 0; a < nAccess; a++ {
		if res[a].ord%3 != 0 || res[a].nUnfrozen < 2 {
			continue
		}
		grp := int32(a + 1)
		for _, fi := range resFlows[res[a].start:res[a].end] {
			m := &seen[flowRes[3*fi+1]]
			if m.grp != grp {
				*m = pairMark{grp, fi}
				continue
			}
			prev := m.last
			p := flowRes[3*prev+2]
			if p < 0 { // prev was alone on the pair until now
				bw := topo.CoreBW(active[fi].src, active[fi].dst)
				if bw <= 0 {
					continue // no bandwidth set: the pair is no resource
				}
				p = int32(len(res))
				res = append(res, resource{cap: bw, key: -1, ord: 3*prev + 2, nUnfrozen: 1})
				flowRes[3*prev+2] = p
			}
			flowRes[3*fi+2] = p
			res[p].nUnfrozen++
			next[prev] = fi
			m.last = fi
		}
	}
	for ri := nAccess; ri < len(res); ri++ {
		r := &res[ri]
		r.start = pos
		for fi, k := r.ord/3, r.nUnfrozen; k > 0; fi, k = next[fi], k-1 {
			resFlows[pos] = fi
			pos++
		}
		r.end = pos
	}
	n.fsResources = res

	// The saturation heap holds one (sat, ord) entry per resource with the
	// invariant stored sat <= the resource's current sat. A freeze at rate
	// <= sat leaves the resource's sat no lower, so an ordinary freeze does
	// not touch the heap: a stale entry is corrected when it surfaces. Only
	// a freeze inside the eps band above sat, or one whose rounding goes the
	// other way, lowers a sat; then a second, lower entry is pushed. Either
	// way the top entry, once it matches its resource, is the lowest
	// (sat, ord) among live resources.
	heap := sized(&n.fsSatHeap, len(res))
	for ri := range res {
		r := &res[ri]
		r.sat = r.level()
		heap[ri] = satEntry{r.sat, r.ord, int32(ri)}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		satDown(heap, i)
	}

	unfrozen := nf
	freeze := func(fi int32, rate float64) {
		frozen[fi] = true
		rates[fi] = rate
		unfrozen--
		for _, ri := range flowRes[3*fi : 3*fi+3] {
			if ri < 0 {
				continue
			}
			r := &res[ri]
			if r.nUnfrozen == 0 {
				continue // the resource saturating in this event
			}
			r.nUnfrozen--
			r.frozenUse += rate
			if r.nUnfrozen == 0 {
				continue // its entry is dropped when it surfaces
			}
			sat := r.level()
			if sat < r.sat {
				heap = satPush(heap, satEntry{sat, r.ord, ri})
			}
			r.sat = sat
		}
	}

	slices.SortFunc(order, capCmp)
	n.fsCapOrder = order
	capPtr := 0

	for unfrozen > 0 {
		// Next cap event: the first unfrozen flow in cap order.
		for capPtr < len(order) && frozen[order[capPtr].fi] {
			capPtr++
		}
		minCap := math.Inf(1)
		if capPtr < len(order) {
			minCap = order[capPtr].cap
		}
		// Next saturation event: the top entry, once it is neither dead nor
		// behind its resource.
		minSat, satRes := math.Inf(1), int32(-1)
		for len(heap) > 0 {
			top := &heap[0]
			r := &res[top.ri]
			if r.nUnfrozen == 0 {
				heap = satPop(heap)
				continue
			}
			if top.sat != r.sat {
				top.sat = r.sat
				satDown(heap, 0)
				continue
			}
			minSat, satRes = top.sat, top.ri
			break
		}

		if minCap <= minSat+fillEps && !math.IsInf(minCap, 1) {
			// The unfrozen flows inside the eps band are contiguous in cap
			// order; they freeze in ascending flow index.
			grp := n.fsGrp[:0]
			for p := capPtr; p < len(order) && order[p].cap <= minCap+fillEps; p++ {
				if fi := order[p].fi; !frozen[fi] {
					grp = append(grp, fi)
				}
			}
			slices.Sort(grp)
			for _, fi := range grp {
				freeze(fi, caps[fi])
			}
			n.fsGrp = grp[:0]
			continue
		}
		if satRes >= 0 && !math.IsInf(minSat, 1) {
			// Its flows all freeze at this level now. Marking it dead first
			// keeps freeze off it: refreshing its sat per flow would be wasted,
			// and rounding would lower that sat (and push) every other time.
			r := &res[satRes]
			r.nUnfrozen = 0
			for _, fi := range resFlows[r.start:r.end] {
				if !frozen[fi] {
					freeze(fi, min(minSat, caps[fi]))
				}
			}
			continue
		}
		// No finite cap and no saturable resource: unconstrained flows.
		for i := range frozen {
			if !frozen[i] {
				freeze(int32(i), 1e12)
			}
		}
	}
	n.fsSatHeap = heap
	return rates, anySS
}

// satEntry is one saturation-heap entry; see fairShare.
type satEntry struct {
	sat float64
	ord int32
	ri  int32
}

func satLess(a, b satEntry) bool {
	if a.sat != b.sat {
		return a.sat < b.sat
	}
	return a.ord < b.ord
}

func satPush(h []satEntry, e satEntry) []satEntry {
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

func satPop(h []satEntry) []satEntry {
	nh := len(h) - 1
	h[0] = h[nh]
	h = h[:nh]
	satDown(h, 0)
	return h
}

// satDown restores the heap below entry i after its key rose.
func satDown(h []satEntry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && satLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && satLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// sized returns the reusable scratch slice *s resized to n elements, growing
// it when needed; the contents are whatever the last use left.
func sized[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}
