package proto

import "bulletprime/internal/netem"

// Transport is the real-network backend contract: when Runtime.Transport is
// set, connections route their traffic through it instead of the emulated
// netem flows, and the protocols above run unchanged — Dial/Send/Close keep
// their reliable in-order semantics, with the transport (internal/testbed)
// supplying them over real sockets via framing, retransmission, and
// reordering recovery.
//
// All methods are invoked on the experiment's event-loop goroutine, during
// event execution; a transport delivers inbound traffic back through the
// Wire* methods on Conn, also on the event-loop goroutine, after advancing
// the engine clock to the mapped arrival time.
type Transport interface {
	// Open registers a freshly dialed connection and carries its SYN to
	// the target, which fires Conn.WireAccept on delivery.
	Open(c *Conn, dialer, target netem.NodeID)
	// Send carries one message from 'from' to 'to' on c, reliably and in
	// order per direction. The transport reports per-message completion
	// via Conn.WireAcked, which is what the protocols' queue-depth and
	// idle-time signals observe.
	Send(c *Conn, from, to netem.NodeID, m Message)
	// Close carries the connection teardown by 'from'; the remote
	// endpoint observes it via Conn.WirePeerClose on delivery.
	Close(c *Conn, from, to netem.NodeID)
	// RTT estimates the current round-trip time between two nodes in
	// seconds of virtual time (measured, not configured — there is no
	// topology on a real network).
	RTT(a, b netem.NodeID) float64
}

// TransportGauges is a snapshot of a transport backend's live state,
// sampled into the observer pipeline each tick: measured per-pair RTTs
// (median and worst, virtual seconds), bytes sent but not yet acknowledged,
// and the cumulative retransmit / injected-loss counters.
type TransportGauges struct {
	RTTp50        float64
	RTTMax        float64
	UnackedBytes  float64
	Retransmits   int
	InjectedDrops int
}

// Gauger is the optional Transport extension observers probe for: backends
// that can snapshot their link state (internal/testbed) implement it.
// Gauges must be called on the run-loop goroutine, where all transport
// state mutation happens.
type Gauger interface {
	Gauges() TransportGauges
}

// dirFrom returns the half sending from the node with the given id, or nil
// if the id is not an endpoint (a stale frame for a recycled id).
func (c *Conn) dirFrom(from netem.NodeID) *half {
	switch from {
	case c.dialer.ID:
		return &c.h[0]
	case c.target.ID:
		return &c.h[1]
	}
	return nil
}

// WireAccept fires the target's accept callback: the transport calls it
// when the connection's SYN envelope arrives over the real network, and the
// emulator's evAccept event when the SYN's one-way delay has passed.
func (c *Conn) WireAccept() {
	if !c.closed && c.target.OnAccept != nil {
		c.target.OnAccept(c)
	}
}

// WireDeliver delivers one transported message sent by the node 'from'
// through the emulator's delivery step (half.receive): meters, control/data
// accounting, and the receiver's OnMessage. Deliveries to a closed
// connection or a non-endpoint id are dropped, as the emulator drops
// deliveries that race a close.
func (c *Conn) WireDeliver(from netem.NodeID, m Message) {
	if h := c.dirFrom(from); h != nil {
		h.receive(m)
	}
}

// WireAcked reports that the peer acknowledged one message of the given
// wire size sent by 'from'. It is the transport-mode source of the
// protocols' backpressure signals: QueueLen/QueueBytes count unacked
// messages (the real-socket analogue of an emulated send queue), and the
// direction reads as idle once nothing is unacked.
func (c *Conn) WireAcked(from netem.NodeID, size float64) {
	h := c.dirFrom(from)
	if h == nil || c.closed {
		return
	}
	h.inflight--
	h.queuedBytes -= size
	if h.inflight <= 0 {
		h.inflight = 0
		h.queuedBytes = 0
		h.idleSince = c.rt.Eng.Now()
	}
}

// WirePeerClose fires the close callback of the endpoint at 'to' — the
// remote side of a Close, carried over the network by a transport or
// delayed by the emulator's evPeerClose event.
func (c *Conn) WirePeerClose(to netem.NodeID) {
	if h := c.dirFrom(to); h != nil && h.from.OnClose != nil {
		h.from.OnClose(c)
	}
}

// WireAbort tears the connection down after the transport exhausted its
// delivery retries (the link is dead): both endpoints observe OnClose, the
// same signal a crashed peer produces, so the protocols' churn handling
// takes over.
func (c *Conn) WireAbort() {
	if c.teardown() {
		c.WirePeerClose(c.dialer.ID)
		c.WirePeerClose(c.target.ID)
	}
}
