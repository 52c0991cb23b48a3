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
// the convergence time of real TCP after cross-traffic changes. It is also
// how far past a component's earliest completion a refill arms completion
// events (see armComponent), which is why it is a constant: raised while
// flows are in service, an event left unarmed under the old value could come
// due before the recomputation the new value allows.
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

	// Owns, when set, restricts opened flows to endpoints this network instance
	// is responsible for. Sharded runs give each shard its own Network over
	// a shared topology; every flow must stay inside one shard, because the
	// waterfill only sees the flows of its own instance. Cross-shard
	// endpoints panic — such traffic belongs in sim.Shard posts.
	Owns func(NodeID) bool

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
	dirtyComps []int32 // dirty component slots, reused across recomputations

	// The max-min fill (fill.go) with its scratch, and per refilled flow when
	// it finishes at its new rate; both reused across recomputations so the
	// steady state allocates nothing.
	fill filler
	due  []sim.Time

	// Recomputes counts fair-share recomputations, for tests and profiling.
	Recomputes uint64
	// FlowRatesRecomputed counts flow rates assigned by refills across all
	// recomputations; FlowRatesSkipped counts active flow rates left
	// untouched because their component was clean. Together they quantify
	// how much work incremental recomputation avoids. FlowRatesReused of the
	// recomputed rates came from a reused fill: FillsReused counts the
	// refills that found every fill input of their component as its last
	// fill read it, and took that fill's rates (DESIGN.md §3.4).
	FlowRatesRecomputed uint64
	FlowRatesSkipped    uint64
	FlowRatesReused     uint64
	FillsReused         uint64
	// The fill's work across all fills that ran: cap-order entries sorted,
	// saturation-heap entries popped dead and re-sifted stale, and heap
	// rebuilds with the entries they visited (DESIGN.md §3.2).
	FillCapsOrdered    uint64
	FillDeadPopped     uint64
	FillStaleResifts   uint64
	FillHeapRebuilds   uint64
	FillRebuildVisited uint64
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
		Eng:     eng,
		Topo:    topo,
		rng:     rng,
		busyOut: make([]int32, topo.N),
		busyIn:  make([]int32, topo.N),
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

	// Path constants, sampled from the topology with coreBW when the flow
	// opens and again whenever its dst's generation has moved past pathGen
	// (samplePath).
	rtt    float64
	loss   float64
	mathis float64 // MathisCap(rtt, loss)

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

	// The fill input this flow had at its component's last refill, as bits,
	// and the rate that fill gave it: what the component's next refill
	// compares with and may reuse (DESIGN.md §3.4).
	fillKey  fillKey
	fillRate float64

	// The rest of the path sample (samplePath).
	pathGen uint64
	coreBW  float64
}

// NewFlow opens a unidirectional flow src→dst. The slow-start ramp starts
// now (connection establishment).
func (n *Network) NewFlow(src, dst NodeID) *Flow {
	f := new(Flow)
	n.OpenFlow(f, src, dst)
	return f
}

// OpenFlow opens a unidirectional flow src→dst in f, which must be unused,
// so a caller can keep its flows inside its own structures. The slow-start
// ramp starts now (connection establishment).
func (n *Network) OpenFlow(f *Flow, src, dst NodeID) {
	if src == dst {
		panic("netem: flow endpoints must differ")
	}
	if n.Owns != nil && (!n.Owns(src) || !n.Owns(dst)) {
		panic(fmt.Sprintf("netem: flow %d→%d crosses a shard boundary; "+
			"cross-shard traffic must travel as timestamped shard posts, not flows", src, dst))
	}
	n.nextID++
	*f = Flow{
		net:         n,
		id:          n.nextID,
		src:         src,
		dst:         dst,
		open:        true,
		established: n.Eng.Now(),
	}
	f.samplePath()
}

// samplePath reads the flow's path constants from the topology.
func (f *Flow) samplePath() {
	t := f.net.Topo
	f.pathGen = t.gen[f.dst]
	f.coreBW = t.CoreBW(f.src, f.dst)
	f.rtt = t.RTT(f.src, f.dst)
	f.loss = t.CoreLoss(f.src, f.dst)
	f.mathis = MathisCap(f.rtt, f.loss)
}

// pathMoved reports whether a write since samplePath may have changed the
// flow's path constants.
func (f *Flow) pathMoved() bool { return f.pathGen != f.net.Topo.gen[f.dst] }

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
	if f.pathMoved() {
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
// bandwidth (mutable at run time, and returned as sampled), Mathis loss cap,
// and slow-start ramp.
func (f *Flow) capNow(now sim.Time) (cap, coreBW float64, ssBinding bool) {
	if f.pathMoved() {
		f.samplePath()
	}
	cap, ssBinding = pathCap(f.coreBW, f.mathis, float64(now-f.established), f.rtt)
	return cap, f.coreBW, ssBinding
}

// pathCap is capNow's arithmetic: the least of the core bandwidth (none when
// not positive), the Mathis cap and the slow-start ramp of a flow age
// seconds old, and whether the ramp is the binding one.
func pathCap(coreBW, mathis, age, rtt float64) (cap float64, ssBinding bool) {
	cap = coreBW
	if cap <= 0 {
		cap = math.Inf(1)
	}
	if mathis < cap {
		cap = mathis
	}
	if slowStartMayBind(age, rtt, cap) {
		if ss := SlowStartCap(age, rtt); ss < cap {
			cap = ss
			ssBinding = true
		}
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
	cap, _, _ := f.capNow(n.Eng.Now())
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
// DefaultRecomputeInterval of the previous one.
func (n *Network) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	at := n.Eng.Now()
	if n.haveRun {
		if earliest := n.lastRun + sim.Time(DefaultRecomputeInterval); earliest > at {
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

// LinkChanged must be called after mutating the bandwidth of the core link
// src→dst (or of either endpoint's access link) at run time, so allocated
// rates are refreshed: it schedules a recomputation of just the components
// sharing capacity with that link.
func (n *Network) LinkChanged(src, dst NodeID) {
	n.dirtyOut.add(n.Topo.N, src)
	n.dirtyIn.add(n.Topo.N, dst)
	n.markDirty()
}

// LinkRef names one link: for batched change reporting, and for reading and
// writing its bandwidth (Topology.LinkBW, SetLinkBW). A core link is (Src,
// Dst); an access link leaves the far side negative: {Src: i, Dst: -1} is
// node i's outbound access link, {Src: -1, Dst: i} its inbound.
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
// dirty set is accumulated and the recompute scheduled exactly once. A caller
// that cannot name what changed names every node's two access links.
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

// recompute refills the components of the sharing graph dirtied since the
// last pass: max-min fair rates with per-flow caps, in-progress transfers
// brought up to date, completions re-armed. Flows in clean components keep
// their rates and whatever completion events they have armed; max-min
// allocations decompose exactly over connected components because no
// resource spans two of them.
func (n *Network) recompute() {
	n.dirty = false
	n.haveRun = true
	now := n.Eng.Now()
	n.lastRun = now
	n.Recomputes++

	part := &n.part
	part.update(n.Topo.N, n.churned)
	clear(n.churned)
	n.churned = n.churned[:0]

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
	// numbers armComponent draws, and so same-instant event order,
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
		due, ss := n.waterfillGroup(c, now)
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

// waterfillGroup advances and re-waterfills one component and reports
// whether any slow-start cap was binding; ramping flows re-dirty their
// endpoints so the ramp keeps advancing even without flow churn. Every flow
// is left disarmed, its due time at the new rate in due (scratch, valid until
// the next call); armComponent arms.
//
// A fresh component is filled and records nothing. Each refill of it after
// that records every flow's fill input and rate on the flow, and one that
// finds no input moved since the last record takes the recorded rates
// instead of running the fill: the fill is a function of its input, and the
// component holds the same flows in the same order (DESIGN.md §3.4).
func (n *Network) waterfillGroup(c *component, now sim.Time) (due []sim.Time, anySS bool) {
	flows := c.flows
	for _, f := range flows {
		f.advance(now)
	}
	record := c.fills > 0
	in, anySS, moved := n.sample(flows, now, record)
	reuse := c.fills == 2 && !moved
	n.FlowRatesRecomputed += uint64(len(flows))
	var rates []float64
	if reuse {
		n.FillsReused++
		n.FlowRatesReused += uint64(len(flows))
	} else {
		rates = n.fill.rates(in, n.Topo.AccessOut, n.Topo.AccessIn)
		c.fills = min(c.fills+1, 2)
		w := &n.fill.work
		n.FillCapsOrdered += w.capsOrdered
		n.FillDeadPopped += w.deadPopped
		n.FillStaleResifts += w.staleResifts
		n.FillHeapRebuilds += w.rebuilds
		n.FillRebuildVisited += w.rebuildVisits
	}
	due = sized(&n.due, len(flows))
	for i, f := range flows {
		switch {
		case reuse:
			f.rate = f.fillRate
		case record:
			f.rate = rates[i]
			f.fillRate = f.rate
		default:
			f.rate = rates[i]
		}
		f.disarm()
		due[i] = f.dueAt(now)
		if f.ssBinding {
			n.touch(f)
		}
	}
	return due, anySS
}

// fillKey is one flow's fill input as bits: its cap, its core bandwidth and
// the capacities of its two access links. Bits, not values, so −0 and +0
// count as a change.
type fillKey [4]uint64

// sample reads each flow's cap and core bandwidth at now into the fill's
// input (valid until the next call) and reports whether any slow-start cap
// was binding. With record set it also stores each flow's fillKey on the
// flow and reports whether any differs from the one stored before.
func (n *Network) sample(flows []*Flow, now sim.Time, record bool) (in []fillFlow, anySS, moved bool) {
	in = sized(&n.fill.in, len(flows))
	out, acc := n.Topo.AccessOut, n.Topo.AccessIn
	for i, f := range flows {
		c, bw, ss := f.capNow(now)
		f.ssBinding = ss
		anySS = anySS || ss
		in[i] = fillFlow{f.src, f.dst, c, bw}
		if record {
			k := fillKey{math.Float64bits(c), math.Float64bits(bw),
				math.Float64bits(out[f.src]), math.Float64bits(acc[f.dst])}
			moved = moved || k != f.fillKey
			f.fillKey = k
		}
	}
	return in, anySS, moved
}

// armComponent schedules the completions of one freshly refilled component
// that can fire before the component is refilled again: those due no later
// than DefaultRecomputeInterval after its earliest. The rest get no engine
// event. That is safe because the earliest completion — or any start, close
// or link change that comes sooner — dirties an endpoint of the component,
// markDirty then runs a recomputation no later than DefaultRecomputeInterval
// after it, and that recomputation refills every flow the component still
// has (whichever components they are in by then, each is reached from a
// dirtied endpoint).
// DESIGN.md §3 has the contract.
func (n *Network) armComponent(flows []*Flow, due []sim.Time) {
	first := never
	for _, d := range due {
		first = min(first, d)
	}
	horizon := first + sim.Time(DefaultRecomputeInterval)
	for i, f := range flows {
		switch {
		case due[i] == never:
		case due[i] <= horizon:
			f.arm(due[i])
			n.CompletionsArmed++
		default:
			n.CompletionsDeferred++
		}
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
