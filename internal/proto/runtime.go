// Package proto is the protocol runtime shared by every dissemination
// system in this repository (Bullet', Bullet, BitTorrent, SplitStream,
// Shotgun). It plays the role MACEDON plays in the paper: nodes, reliable
// ordered connections, message framing, timers, and the bookkeeping
// (queue depths, idle times, byte meters) the protocols' control algorithms
// observe.
//
// A Conn multiplexes control and data messages onto one netem flow per
// direction, FIFO. Control messages therefore suffer head-of-line blocking
// behind queued 16 KB blocks exactly as they would inside a TCP socket
// buffer — the effect Bullet's flow control (§3.3.3) and the request
// strategy comparison (§4.3) depend on.
//
// The send/deliver hot path is allocation-free in the steady state: queued
// messages live in per-runtime pooled nodes (returned to the pool at
// delivery, and allocated a chunk at a time when the pool runs dry), each
// half's queue is a list linked through those nodes, and serialization and
// delivery are typed engine events rather than closures. Ownership rule:
// the runtime owns message nodes from Send until the delivery callback is
// entered, and handlers receive a value copy of the Message. The runtime
// never owns a Payload: it carries the reference from Send to the
// receiver's OnMessage and then forgets it. A protocol that recycles its
// payloads (core's request, block and diff messages come from a per-session
// free list) therefore returns one in the receiving node's OnMessage, when
// the handler it was delivered to is done with it, and nowhere else. A
// message that is never delivered — still queued when Conn.Close runs,
// arriving on a connection that closed meanwhile, addressed to a node whose
// callbacks Fail cleared, or lost with a transport's link — has its
// reference dropped with no callback at all, so its payload is never
// returned and falls to the garbage collector: a recycling protocol must
// not count on every payload coming back, and nothing it gets back can
// still be in flight.
package proto

import (
	"cmp"
	"fmt"
	"slices"

	"bulletprime/internal/netem"
	"bulletprime/internal/obs"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// Message is a framed unit on a connection. Size is the wire size in bytes
// (payload plus protocol header); Payload is an arbitrary in-memory value —
// the emulator charges bytes but does not serialize.
type Message struct {
	Kind    int
	Size    float64
	Payload any
}

// MsgOverhead is the per-message framing overhead in bytes charged on the
// wire (type, length, and protocol header fields).
const MsgOverhead = 48

// msgNode is a pooled queue slot for one in-flight message.
type msgNode struct {
	m      Message
	pooled bool // double-free guard
	// next links the node into the pool while pooled and into its half's
	// queue while queued; it is nil while the message is on the wire.
	next *msgNode
}

// msgChunk is how many message nodes one pool miss allocates at once.
const msgChunk = 256

// meterBucket (seconds) and meterSlots shape every node's rate meters: they
// resolve rates over windows up to ~30 s at 1 s granularity.
const (
	meterBucket = 1.0
	meterSlots  = 32
)

// Node is a protocol endpoint. Protocol packages set the three callbacks
// and attach their own per-node state via State.
type Node struct {
	rt *Runtime
	// ID is this node's address in the emulated topology.
	ID netem.NodeID

	// OnMessage is invoked for every delivered message.
	OnMessage func(c *Conn, m Message)
	// OnAccept is invoked when a remote node dials this node, at SYN
	// arrival time. The conn is usable for sending immediately.
	OnAccept func(c *Conn)
	// OnClose is invoked once per side when the connection closes.
	OnClose func(c *Conn)

	// InMeter and OutMeter measure delivered payload bandwidth.
	InMeter  *trace.RateMeter
	OutMeter *trace.RateMeter

	// State is arbitrary protocol-owned per-node state.
	State any

	conns map[*Conn]struct{}
	dead  bool
}

// Runtime owns the nodes of one experiment and binds them to the emulated
// network.
type Runtime struct {
	Eng   *sim.Engine
	Net   *netem.Network
	nodes map[netem.NodeID]*Node

	// MessagesDelivered counts every delivered message (all nodes).
	MessagesDelivered uint64
	// ControlBytes and DataBytes split delivered wire bytes by IsData.
	ControlBytes float64
	DataBytes    float64

	// DataMeter, when set before the run, additionally feeds every
	// delivered data byte into a rate meter, giving observers the overlay's
	// instantaneous aggregate goodput. Nil (the default) costs the
	// delivery path nothing but a nil check.
	DataMeter *trace.RateMeter

	// Tracer, when set before the run, records typed protocol-decision
	// spans (sender trims, promotions, rechokes, reconcile rounds) through
	// Trace. Tracing only reads state — a traced run is bit-identical to an
	// untraced one. Nil (the default) costs call sites one nil check; sites
	// that build note strings must guard on the field themselves.
	Tracer *obs.Tracer

	// Transport, when set before any node dials, replaces the emulated
	// network as the message path: connections carry their traffic through
	// it (real UDP sockets in internal/testbed) instead of netem flows,
	// and Net may be nil. See the Transport interface.
	Transport Transport

	// OwnershipHint, when set, explains why a node is not registered here.
	// Sharded runs give each shard its own Runtime; dialing a node that
	// lives on another shard is a protocol-layer bug, and the hint (e.g.
	// "node 130 belongs to shard 3") turns the resulting panic from a
	// mystery into a diagnosis.
	OwnershipHint func(netem.NodeID) string

	msgFree  *msgNode // message-node pool
	msgLen   int
	msgChunk []msgNode // nodes not yet handed out, carved on pool misses

	dials   uint64  // connections dialed so far: the next Conn.seq
	failing []*Conn // Fail's scratch: the failing node's connections
}

// NewRuntime creates a runtime over the given emulated network.
func NewRuntime(eng *sim.Engine, net *netem.Network) *Runtime {
	return &Runtime{
		Eng:   eng,
		Net:   net,
		nodes: make(map[netem.NodeID]*Node),
	}
}

// getMsg draws a message node from the pool and fills it with m.
func (rt *Runtime) getMsg(m Message) *msgNode {
	n := rt.msgFree
	if n != nil {
		rt.msgFree = n.next
		rt.msgLen--
		n.next = nil
		n.pooled = false
	} else {
		if len(rt.msgChunk) == 0 {
			rt.msgChunk = make([]msgNode, msgChunk)
		}
		n = &rt.msgChunk[0]
		rt.msgChunk = rt.msgChunk[1:]
	}
	n.m = m
	return n
}

// putMsg returns a node to the pool. Returning a node twice is a
// programming error that would silently alias two queued messages, so it
// panics.
func (rt *Runtime) putMsg(n *msgNode) {
	if n.pooled {
		panic("proto: message node returned to pool twice")
	}
	n.pooled = true
	n.m = Message{} // drop payload reference; the value was handed off
	n.next = rt.msgFree
	rt.msgFree = n
	rt.msgLen++
}

// NewNode registers a node at the given topology address.
func (rt *Runtime) NewNode(id netem.NodeID) *Node {
	if _, dup := rt.nodes[id]; dup {
		panic(fmt.Sprintf("proto: duplicate node %d", id))
	}
	n := &Node{
		rt:       rt,
		ID:       id,
		InMeter:  trace.NewRateMeter(meterBucket, meterSlots),
		OutMeter: trace.NewRateMeter(meterBucket, meterSlots),
		conns:    make(map[*Conn]struct{}),
	}
	rt.nodes[id] = n
	return n
}

// Node returns the node registered at id, or nil.
func (rt *Runtime) Node(id netem.NodeID) *Node { return rt.nodes[id] }

// Now returns the current virtual time.
func (rt *Runtime) Now() sim.Time { return rt.Eng.Now() }

// Trace records one protocol-decision span at the current virtual time; a
// no-op when no Tracer is installed. Call sites that compute a note string
// should guard on rt.Tracer != nil to keep the untraced path free.
func (rt *Runtime) Trace(kind string, node, peer netem.NodeID, note string) {
	if rt.Tracer != nil {
		rt.Tracer.Record(float64(rt.Eng.Now()), kind, int(node), int(peer), note)
	}
}

// AddData accounts n delivered data bytes at virtual time at, outside the
// message delivery path — the seam workloads that move bytes as raw netem
// flows (the sharded scalefill reference workload) use to keep DataBytes
// and the observer goodput meter truthful.
func (rt *Runtime) AddData(at sim.Time, n float64) {
	rt.DataBytes += n
	if rt.DataMeter != nil {
		rt.DataMeter.Add(at, n)
	}
}

// After schedules fn after d seconds of virtual time.
func (rt *Runtime) After(d float64, fn func()) sim.EventRef { return rt.Eng.After(d, fn) }

// AfterEvent schedules a typed event after d seconds of virtual time; the
// allocation-free timer form protocols use for their periodic work.
func (rt *Runtime) AfterEvent(d float64, h sim.Handler, kind int32, payload any) sim.EventRef {
	return rt.Eng.AfterEvent(d, h, kind, payload)
}

// Conns returns the number of open connections on n.
func (n *Node) Conns() int { return len(n.conns) }

// Runtime returns the runtime that owns this node.
func (n *Node) Runtime() *Runtime { return n.rt }

// Fail crashes the node: every connection closes (peers observe OnClose
// after the propagation delay, as with a TCP reset from a dead peer), no
// further messages are delivered to or sent by it, and its callbacks are
// cleared. Used by the churn/failure-injection experiments: the paper's
// argument for meshes is precisely that losing one of n peers costs only
// 1/n of a node's bandwidth.
func (n *Node) Fail() {
	if n.dead {
		return
	}
	n.dead = true
	n.OnMessage = nil
	n.OnAccept = nil
	n.OnClose = nil
	// Close in dial order, not the map's: each close schedules its peer's
	// callback, and nothing in a run may follow map iteration order.
	cs := n.rt.failing[:0]
	for c := range n.conns {
		cs = append(cs, c)
	}
	slices.SortFunc(cs, func(a, b *Conn) int { return cmp.Compare(a.seq, b.seq) })
	for _, c := range cs {
		c.Close(n)
	}
	clear(cs)
	n.rt.failing = cs
}

// Dead reports whether Fail has been called.
func (n *Node) Dead() bool { return n.dead }

// half is one direction of a connection. It implements sim.Handler (typed
// pump/delivery events) and netem.Completer (serialization completion), so
// the steady-state data path schedules no closures.
type half struct {
	conn        *Conn
	from, to    *Node
	flow        netem.Flow // unopened in transport mode
	qHead       *msgNode   // FIFO of queued messages, linked through next
	qTail       *msgNode
	qLen        int
	queuedBytes float64

	lastDelivery sim.Time // in-order delivery floor
	idleSince    sim.Time // when this direction last became idle; -1 if busy
	delivered    float64  // wire bytes fully delivered
	pumpPending  bool
	inflight     int // transport mode: messages sent but not yet acked
}

// Typed-event kinds for half (evDeliver, evPumpReady) and Conn (evAccept,
// evPeerClose).
const (
	evDeliver int32 = iota
	evPumpReady
	evAccept
	evPeerClose
)

// Conn is a bidirectional reliable connection between two nodes.
type Conn struct {
	rt      *Runtime
	seq     uint64 // dial order within the runtime
	dialer  *Node
	target  *Node
	h       [2]half // [0] dialer->target, [1] target->dialer
	readyAt sim.Time
	closed  bool

	// IsData classifies message kinds as bulk data (for the runtime's
	// control/data accounting); protocols set it once after dialing.
	IsData func(kind int) bool

	stateD any // protocol state attached by the dialer side
	stateT any // protocol state attached by the target side
}

// Dial opens a connection from n to the node at the given address. The
// remote's OnAccept fires after the one-way delay (SYN arrival); sending is
// allowed immediately on both sides, but no bytes are serialized until the
// TCP handshake completes (one RTT after dial).
func (n *Node) Dial(to netem.NodeID) *Conn {
	remote := n.rt.nodes[to]
	if remote == nil {
		if n.rt.OwnershipHint != nil {
			panic(fmt.Sprintf("proto: dial to unregistered node %d (%s)", to, n.rt.OwnershipHint(to)))
		}
		panic(fmt.Sprintf("proto: dial to unregistered node %d", to))
	}
	if remote == n {
		panic("proto: dial to self")
	}
	if n.dead || remote.dead {
		// Connection to/from a crashed node: create it pre-closed so the
		// caller's normal OnClose path cleans up.
		c := &Conn{rt: n.rt, dialer: n, target: remote, closed: true}
		return c
	}
	now := n.rt.Eng.Now()
	n.rt.dials++
	c := &Conn{rt: n.rt, seq: n.rt.dials, dialer: n, target: remote, readyAt: now}
	c.h[0] = half{conn: c, from: n, to: remote, idleSince: now}
	c.h[1] = half{conn: c, from: remote, to: n, idleSince: now}
	n.conns[c] = struct{}{}
	remote.conns[c] = struct{}{}
	if tr := n.rt.Transport; tr != nil {
		// No flows and no handshake gate: the transport's reliable link
		// orders everything, and the SYN fires WireAccept on arrival.
		tr.Open(c, n.ID, to)
		return c
	}
	c.readyAt += sim.Time(n.rt.Net.Topo.RTT(n.ID, to))
	n.rt.Net.OpenFlow(&c.h[0].flow, n.ID, to)
	n.rt.Net.OpenFlow(&c.h[1].flow, to, n.ID)
	n.rt.Eng.AfterEvent(n.rt.Net.Topo.OneWayDelay(n.ID, to), c, evAccept, nil)
	return c
}

// OnEvent dispatches the connection-level typed events (accept and remote
// close notification) to the steps a transport calls as WireAccept and
// WirePeerClose; engine plumbing, not public API.
func (c *Conn) OnEvent(kind int32, payload any) {
	switch kind {
	case evAccept:
		c.WireAccept()
	case evPeerClose:
		c.WirePeerClose(payload.(*Node).ID)
	}
}

// Peer returns the other endpoint relative to n.
func (c *Conn) Peer(n *Node) *Node {
	if n == c.dialer {
		return c.target
	}
	return c.dialer
}

// Closed reports whether Close has been called by either side.
func (c *Conn) Closed() bool { return c.closed }

// SetState attaches protocol state for the given side.
func (c *Conn) SetState(n *Node, v any) {
	if n == c.dialer {
		c.stateD = v
	} else {
		c.stateT = v
	}
}

// State returns the protocol state attached by the given side.
func (c *Conn) State(n *Node) any {
	if n == c.dialer {
		return c.stateD
	}
	return c.stateT
}

func (c *Conn) dir(from *Node) *half {
	if from == c.dialer {
		return &c.h[0]
	}
	if from == c.target {
		return &c.h[1]
	}
	panic("proto: node not an endpoint of this conn")
}

// Send queues a message from n to its peer. Messages on a connection are
// delivered reliably and in order. Sends on a closed connection are
// silently dropped (the peer may have closed concurrently).
func (c *Conn) Send(n *Node, m Message) {
	if c.closed {
		return
	}
	if m.Size < MsgOverhead {
		m.Size += MsgOverhead
	}
	h := c.dir(n)
	h.queuedBytes += m.Size
	if tr := c.rt.Transport; tr != nil {
		// The transport's per-pair link is the serialization queue: the
		// message is handed over now and stays counted against the
		// direction until the peer acknowledges it (WireAcked).
		h.inflight++
		h.idleSince = -1
		n.OutMeter.Add(c.rt.Eng.Now(), m.Size)
		tr.Send(c, n.ID, c.Peer(n).ID, m)
		return
	}
	h.pushMsg(c.rt.getMsg(m))
	h.pump()
}

// pushMsg appends n to the queue.
func (h *half) pushMsg(n *msgNode) {
	if h.qTail == nil {
		h.qHead = n
	} else {
		h.qTail.next = n
	}
	h.qTail = n
	h.qLen++
}

// popMsg removes and returns the head of a non-empty queue.
func (h *half) popMsg() *msgNode {
	n := h.qHead
	h.qHead = n.next
	if h.qHead == nil {
		h.qTail = nil
	}
	n.next = nil
	h.qLen--
	return n
}

// QueueLen returns the number of messages queued (not yet fully serialized)
// in the direction from n, including the one in service.
func (c *Conn) QueueLen(n *Node) int {
	h := c.dir(n)
	q := h.qLen + h.inflight
	if h.flow.Busy() {
		q++
	}
	return q
}

// QueueBytes returns the bytes queued in the direction from n, excluding
// the message currently in service.
func (c *Conn) QueueBytes(n *Node) float64 { return c.dir(n).queuedBytes }

// IdleFor returns how long the direction from n has had nothing to send,
// or 0 if it is busy. This is the sender-side measurement behind the
// negative "wasted" values of Bullet's flow control.
func (c *Conn) IdleFor(n *Node) float64 {
	h := c.dir(n)
	if h.idleSince < 0 {
		return 0
	}
	return float64(c.rt.Eng.Now() - h.idleSince)
}

// DeliveredFrom returns wire bytes delivered in the direction from n.
func (c *Conn) DeliveredFrom(n *Node) float64 { return c.dir(n).delivered }

// RTT returns the path round-trip time between the endpoints: the
// topology's configured RTT under emulation, the transport's measured
// estimate in transport mode.
func (c *Conn) RTT() float64 {
	if tr := c.rt.Transport; tr != nil {
		return tr.RTT(c.dialer.ID, c.target.ID)
	}
	return c.rt.Net.Topo.RTT(c.dialer.ID, c.target.ID)
}

// Close tears down both directions. Queued and in-flight messages are
// dropped (their pooled nodes are reclaimed). Each side's OnClose fires
// exactly once: the closing side immediately, the remote side after the
// one-way delay.
//
// In transport mode the CLOSE rides the transport's reliable link instead,
// and the remote callback fires at real arrival time via WirePeerClose.
func (c *Conn) Close(by *Node) {
	if !c.teardown() {
		return
	}
	other := c.Peer(by)
	tr := c.rt.Transport
	if tr == nil {
		c.h[0].flow.Close()
		c.h[1].flow.Close()
	}
	if by.OnClose != nil {
		by.OnClose(c)
	}
	if tr != nil {
		tr.Close(c, by.ID, other.ID)
		return
	}
	c.rt.Eng.AfterEvent(c.rt.Net.Topo.OneWayDelay(by.ID, other.ID), c, evPeerClose, other)
}

// teardown is the local half of both ways a connection ends, Close and
// WireAbort: queued messages are reclaimed and both endpoints forget the
// connection. It reports false when c was already closed.
func (c *Conn) teardown() bool {
	if c.closed {
		return false
	}
	c.closed = true
	c.h[0].drainQueue()
	c.h[1].drainQueue()
	delete(c.dialer.conns, c)
	delete(c.target.conns, c)
	return true
}

// drainQueue reclaims the pooled nodes of all queued messages.
func (h *half) drainQueue() {
	for h.qLen > 0 {
		h.conn.rt.putMsg(h.popMsg())
	}
	h.queuedBytes = 0
}

// OnEvent dispatches the half's typed engine events; engine plumbing, not
// public API.
func (h *half) OnEvent(kind int32, payload any) {
	switch kind {
	case evDeliver:
		h.deliver(payload.(*msgNode))
	case evPumpReady:
		h.pumpPending = false
		h.pump()
	}
}

func (h *half) pump() {
	c := h.conn
	if c.closed || h.flow.Busy() || h.qLen == 0 || h.pumpPending {
		return
	}
	now := c.rt.Eng.Now()
	if now < c.readyAt {
		h.pumpPending = true
		c.rt.Eng.ScheduleEvent(c.readyAt, h, evPumpReady, nil)
		return
	}
	n := h.popMsg()
	h.queuedBytes -= n.m.Size
	h.idleSince = -1
	h.flow.StartTo(n.m.Size, h, n)
}

// FlowDone fires when the last byte of the message in n leaves the sender
// (netem.Completer).
func (h *half) FlowDone(f *netem.Flow, arg any) {
	h.serialized(arg.(*msgNode))
}

// serialized fires when the last byte of the node's message leaves the
// sender; it schedules the in-order delivery event, which carries the node
// until the pool reclaims it at delivery.
func (h *half) serialized(n *msgNode) {
	c := h.conn
	rt := c.rt
	now := rt.Eng.Now()
	h.from.OutMeter.Add(now, n.m.Size)

	delay := rt.Net.Topo.OneWayDelay(h.from.ID, h.to.ID) + h.flow.DeliveryJitter(n.m.Size)
	at := now + sim.Time(delay)
	if at < h.lastDelivery {
		at = h.lastDelivery // reliable in-order delivery
	}
	h.lastDelivery = at
	rt.Eng.ScheduleEvent(at, h, evDeliver, n)

	if h.qLen == 0 {
		h.idleSince = now
	}
	h.pump()
}

// deliver hands the message to the receiver. The pooled node is reclaimed
// here — delivery transfers ownership of the Message value to the handler,
// while the node goes back to the runtime.
func (h *half) deliver(n *msgNode) {
	m := n.m
	h.conn.rt.putMsg(n)
	h.receive(m)
}

// receive is the delivery step of every backend, emulated or transported: a
// message that raced a close is dropped; any other is metered, counted as
// control or data, and handed to the receiver's OnMessage.
func (h *half) receive(m Message) {
	c := h.conn
	if c.closed {
		return
	}
	rt := c.rt
	at := rt.Eng.Now()
	h.delivered += m.Size
	h.to.InMeter.Add(at, m.Size)
	rt.MessagesDelivered++
	if c.IsData != nil && c.IsData(m.Kind) {
		rt.DataBytes += m.Size
		if rt.DataMeter != nil {
			rt.DataMeter.Add(at, m.Size)
		}
	} else {
		rt.ControlBytes += m.Size
	}
	if h.to.OnMessage != nil {
		h.to.OnMessage(c, m)
	}
}
