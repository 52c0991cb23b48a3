package testbed

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/trace"
	"bulletprime/internal/wire"
)

// Config is the testbed's options; the zero value is the loopback default
// (127.0.0.1, real-time clock, 50 ms RTO, 8 retries, no injected loss). It
// is declared here once: the harness's TestbedSpec and the façade's
// TestbedOptions are this type, and its JSON form is the "testbed" block of
// an archived run's fingerprint — the knobs that shape results, not the
// addresses a run happened to bind. See DESIGN.md §10.
type Config struct {
	// ListenHost is the address every node binds on when Peers has no entry
	// for it; default "127.0.0.1" (ports auto-assigned — the loopback
	// single-process mode).
	ListenHost string `json:"-"`
	// Peers optionally pins listen addresses ("host:port") per node id — the
	// address table of a multi-host deployment. Nodes absent from the table
	// bind ListenHost with an ephemeral port.
	Peers map[int]string `json:"-"`
	// Rate is the run Clock's virtual seconds per wall second
	// (NewClock(Rate)); <= 0 means 1 (real time). Raising it accelerates the
	// protocols' periodic timers against the wall clock.
	Rate float64 `json:"rate,omitempty"`
	// RTO is the wall-clock retransmission timeout in seconds before the
	// first resend; each retry doubles it. <= 0 means 50 ms.
	RTO float64 `json:"rto,omitempty"`
	// MaxRetries bounds resends per frame; exhaustion declares the node pair
	// dead and aborts its in-flight connections. <= 0 means 8.
	MaxRetries int `json:"max_retries,omitempty"`
	// DropProb injects uniform loss: every transmission attempt (data and
	// acks, retransmits included) is dropped with this probability. A test
	// hook — real loss comes from the network underneath.
	DropProb float64 `json:"drop_prob,omitempty"`
	// DropSeed seeds the loss injector; equal seeds drop the same
	// transmission attempts, making loss-tolerance tests deterministic.
	DropSeed int64 `json:"drop_seed,omitempty"`
}

// Normalized returns the config with its defaults filled, the one place
// they live: the façade hashes the result and New runs it. Normalized
// options normalize to themselves.
func (c Config) Normalized() Config {
	if c.ListenHost == "" {
		c.ListenHost = "127.0.0.1"
	}
	if c.Rate <= 0 {
		c.Rate = 1
	}
	if c.RTO <= 0 {
		c.RTO = 0.05
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	return c
}

// Stats counts transport events; read it after the run loop returns.
type Stats struct {
	FramesSent    int // transmission attempts, retransmits included
	FramesRecv    int // datagrams received and decoded
	Retransmits   int // resends after an RTO expiry
	InjectedDrops int // transmissions suppressed by DropProb
	DecodeErrors  int // datagrams rejected by the wire codec
	StaleFrames   int // duplicates and frames for unknown connections
	AbortedConns  int // connections killed by retry exhaustion
}

// pair is one ordered node pair — the unit of reliable-link state.
type pair struct {
	src, dst netem.NodeID
}

// pending is one unacknowledged data frame on a send link.
type pending struct {
	seq     uint32
	frame   []byte // encoded, resent verbatim
	conn    *proto.Conn
	op      uint8
	size    float64
	sentAt  time.Time
	retryAt time.Time
	backoff time.Duration
	retries int
}

// sendLink is the sender half of one ordered pair's reliable link.
type sendLink struct {
	nextSeq uint32 // next sequence number to assign
	pending []*pending
	srtt    time.Duration // smoothed wall RTT from clean (unretried) acks
}

// recvLink is the receiver half: the in-order delivery cursor plus the
// out-of-order buffer for frames that arrived early.
type recvLink struct {
	next     uint32 // next sequence number to deliver
	buffered map[uint32][]byte
}

// Transport carries the protocol runtime's traffic over UDP sockets. One
// goroutine per socket reads datagrams into a shared inbox; all state
// mutation — sends during engine events, inbound handling, retransmission
// ticks — happens on the run-loop goroutine (see Run), so the struct needs
// no locks.
type Transport struct {
	cfg   Config
	rto   time.Duration // cfg.RTO on the wall clock
	clock *Clock

	socks map[netem.NodeID]*net.UDPConn
	addrs map[netem.NodeID]*net.UDPAddr
	inbox chan []byte

	links  map[pair]*sendLink
	rlinks map[pair]*recvLink

	conns    map[uint64]*proto.Conn
	connIDs  map[*proto.Conn]uint64
	nextConn uint64

	// payloads is the process-local payload exchange: protocol message
	// payloads are arbitrary in-memory values the emulator never serializes,
	// so the loopback testbed carries a token on the wire and hands the
	// value across here. A multi-host deployment would replace the table
	// with per-protocol payload codecs (DESIGN.md §10).
	payloads  map[uint64]any
	nextToken uint64

	// Trace, when set, receives one call per retransmission (the
	// wire-level protocol decision observers care about); invoked on the
	// run-loop goroutine from Tick, after the engine clock advanced to the
	// wall-mapped virtual now.
	Trace func(kind string, src, dst netem.NodeID, note string)

	drop  *rand.Rand
	stats Stats

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New binds one UDP socket per node and starts their receive loops. The
// clock converts measured wall RTTs into the virtual seconds Conn.RTT
// reports. Callers must Stop the transport when the run ends.
func New(clock *Clock, cfg Config, nodes []netem.NodeID) (*Transport, error) {
	cfg = cfg.Normalized()
	t := &Transport{
		cfg:      cfg,
		rto:      time.Duration(cfg.RTO * float64(time.Second)),
		clock:    clock,
		socks:    make(map[netem.NodeID]*net.UDPConn, len(nodes)),
		addrs:    make(map[netem.NodeID]*net.UDPAddr, len(nodes)),
		inbox:    make(chan []byte, 1024),
		links:    make(map[pair]*sendLink),
		rlinks:   make(map[pair]*recvLink),
		conns:    make(map[uint64]*proto.Conn),
		connIDs:  make(map[*proto.Conn]uint64),
		payloads: make(map[uint64]any),
		closed:   make(chan struct{}),
	}
	if cfg.DropProb > 0 {
		t.drop = rand.New(rand.NewSource(cfg.DropSeed))
	}
	for _, id := range nodes {
		listen := net.JoinHostPort(cfg.ListenHost, "0")
		if a, ok := cfg.Peers[int(id)]; ok {
			listen = a
		}
		addr, err := net.ResolveUDPAddr("udp", listen)
		if err != nil {
			t.Stop()
			return nil, fmt.Errorf("testbed: node %d listen address %q: %w", id, listen, err)
		}
		sock, err := net.ListenUDP("udp", addr)
		if err != nil {
			t.Stop()
			return nil, fmt.Errorf("testbed: node %d bind %q: %w", id, listen, err)
		}
		t.socks[id] = sock
		t.addrs[id] = sock.LocalAddr().(*net.UDPAddr)
		t.wg.Add(1)
		go t.readLoop(sock)
	}
	return t, nil
}

// Stop closes every socket and waits for the receive loops to exit. Safe to
// call more than once.
func (t *Transport) Stop() {
	t.closeOnce.Do(func() { close(t.closed) })
	for _, s := range t.socks {
		s.Close()
	}
	t.wg.Wait()
}

// Inbox is the stream of raw received datagrams; the run loop drains it and
// feeds HandleDatagram.
func (t *Transport) Inbox() <-chan []byte { return t.inbox }

// Stats returns a snapshot of the transport counters; call it from the
// run-loop goroutine (or after Run returns).
func (t *Transport) Stats() Stats { return t.stats }

// readLoop feeds one socket's datagrams into the shared inbox.
func (t *Transport) readLoop(sock *net.UDPConn) {
	defer t.wg.Done()
	buf := make([]byte, wire.MaxFrame+1)
	for {
		n, _, err := sock.ReadFromUDP(buf)
		if err != nil {
			return // socket closed by Stop
		}
		b := make([]byte, n)
		copy(b, buf[:n])
		select {
		case t.inbox <- b:
		case <-t.closed:
			return
		}
	}
}

// Open implements proto.Transport: the SYN envelope rides the reliable link
// and fires WireAccept on delivery.
func (t *Transport) Open(c *proto.Conn, dialer, target netem.NodeID) {
	t.nextConn++
	id := t.nextConn
	t.conns[id] = c
	t.connIDs[c] = id
	t.sendEnvelope(dialer, target, wire.Msg{Op: wire.OpSyn, Conn: id}, c, 0)
}

// Send implements proto.Transport: one envelope per message, padded to the
// declared wire size, acknowledged back through WireAcked.
func (t *Transport) Send(c *proto.Conn, from, to netem.NodeID, m proto.Message) {
	var token uint64
	if m.Payload != nil {
		t.nextToken++
		token = t.nextToken
		t.payloads[token] = m.Payload
	}
	env := wire.Msg{Op: wire.OpMsg, Conn: t.connIDs[c], Kind: int32(m.Kind), Size: m.Size, Token: token}
	t.sendEnvelope(from, to, env, c, m.Size)
}

// Close implements proto.Transport: the CLOSE envelope fires WirePeerClose
// on delivery.
func (t *Transport) Close(c *proto.Conn, from, to netem.NodeID) {
	t.sendEnvelope(from, to, wire.Msg{Op: wire.OpClose, Conn: t.connIDs[c]}, c, 0)
}

// RTT implements proto.Transport: the smoothed measured wall RTT of the
// pair, in virtual seconds. Before the first clean ack it reports the RTO
// equivalent — pessimistic, never zero.
func (t *Transport) RTT(a, b netem.NodeID) float64 {
	if l, ok := t.links[pair{a, b}]; ok && l.srtt > 0 {
		return t.clock.Virtual(l.srtt)
	}
	return t.clock.Virtual(t.rto)
}

// Gauges implements proto.Gauger: a snapshot of the live link state for the
// observer pipeline. Call it on the run-loop goroutine, like every other
// state accessor.
func (t *Transport) Gauges() proto.TransportGauges {
	g := proto.TransportGauges{
		Retransmits:   t.stats.Retransmits,
		InjectedDrops: t.stats.InjectedDrops,
	}
	var rtts trace.CDF
	for _, l := range t.links {
		for _, p := range l.pending {
			g.UnackedBytes += p.size
		}
		if l.srtt > 0 {
			rtts.Add(t.clock.Virtual(l.srtt))
		}
	}
	if rtts.N() > 0 {
		g.RTTp50 = rtts.Median()
		g.RTTMax = rtts.Worst()
	}
	return g
}

// sendEnvelope frames one envelope onto the pair's reliable link and
// transmits it, leaving a pending entry for the retransmission loop.
func (t *Transport) sendEnvelope(from, to netem.NodeID, env wire.Msg, c *proto.Conn, size float64) {
	k := pair{from, to}
	l := t.links[k]
	if l == nil {
		l = &sendLink{nextSeq: 1}
		t.links[k] = l
	}
	seq := l.nextSeq
	l.nextSeq++
	// Piggyback the cumulative ack of the reverse direction.
	var ack uint32
	if rl, ok := t.rlinks[pair{to, from}]; ok {
		ack = rl.next
	}
	f := wire.Frame{Kind: wire.KindData, Src: uint32(from), Dst: uint32(to), Seq: seq, Ack: ack,
		Payload: wire.AppendEncodeMsg(nil, env)}
	enc := f.AppendEncode(nil)
	now := time.Now()
	l.pending = append(l.pending, &pending{
		seq: seq, frame: enc, conn: c, op: env.Op, size: size,
		sentAt: now, retryAt: now.Add(t.rto), backoff: t.rto,
	})
	t.transmit(from, to, enc)
}

// transmit writes one encoded frame from the source node's socket, subject
// to the injected loss.
func (t *Transport) transmit(from, to netem.NodeID, b []byte) {
	t.stats.FramesSent++
	if t.drop != nil && t.drop.Float64() < t.cfg.DropProb {
		t.stats.InjectedDrops++
		return
	}
	sock, addr := t.socks[from], t.addrs[to]
	if sock == nil || addr == nil {
		return
	}
	sock.WriteToUDP(b, addr)
}

// Tick resends every overdue pending frame with exponential backoff; a
// frame out of retries declares its node pair unreachable.
func (t *Transport) Tick(now time.Time) {
	for k, l := range t.links {
		for _, p := range l.pending {
			if p.retryAt.After(now) {
				continue
			}
			if p.retries >= t.cfg.MaxRetries {
				t.abortPair(k.src, k.dst)
				break // abortPair removed this link's state
			}
			p.retries++
			p.backoff *= 2
			p.retryAt = now.Add(p.backoff)
			t.stats.Retransmits++
			if t.Trace != nil {
				t.Trace("retransmit", k.src, k.dst, fmt.Sprintf("seq %d retry %d", p.seq, p.retries))
			}
			t.transmit(k.src, k.dst, p.frame)
		}
	}
}

// abortPair tears down both directions of a dead node pair: every
// connection with in-flight traffic on it observes WireAbort (the
// crashed-peer signal), and the link state resets so a later dial restarts
// the sequence space cleanly.
func (t *Transport) abortPair(a, b netem.NodeID) {
	dead := make(map[*proto.Conn]struct{})
	for _, k := range []pair{{a, b}, {b, a}} {
		if l := t.links[k]; l != nil {
			for _, p := range l.pending {
				dead[p.conn] = struct{}{}
			}
		}
		delete(t.links, k)
		delete(t.rlinks, k)
	}
	for c := range dead {
		t.stats.AbortedConns++
		if id, ok := t.connIDs[c]; ok {
			delete(t.conns, id)
			delete(t.connIDs, c)
		}
		c.WireAbort()
	}
}

// HandleDatagram processes one received datagram: acks release pending
// frames (and feed the RTT estimate), data frames deliver in order per
// link — buffering the early, re-acking the duplicate — and every accepted
// data frame is cumulatively acknowledged.
func (t *Transport) HandleDatagram(b []byte) {
	f, err := wire.Decode(b)
	if err != nil {
		t.stats.DecodeErrors++
		return
	}
	t.stats.FramesRecv++
	src, dst := netem.NodeID(f.Src), netem.NodeID(f.Dst)
	// Both frame kinds carry a cumulative ack for the reverse link (data
	// frames piggyback it; 0 means none yet).
	if f.Ack > 0 {
		t.applyAck(pair{dst, src}, f.Ack)
	}
	if f.Kind != wire.KindData {
		return
	}
	k := pair{src, dst}
	rl := t.rlinks[k]
	if rl == nil {
		rl = &recvLink{next: 1, buffered: make(map[uint32][]byte)}
		t.rlinks[k] = rl
	}
	switch {
	case f.Seq < rl.next:
		// Duplicate (its ack was lost): drop, but re-ack so the sender can
		// release it.
		t.stats.StaleFrames++
	case f.Seq > rl.next:
		// Early: hold for the gap to fill. The payload aliases this
		// datagram's private buffer, so keeping it is safe.
		rl.buffered[f.Seq] = f.Payload
	default:
		t.deliver(src, dst, f.Payload)
		rl.next++
		for {
			p, ok := rl.buffered[rl.next]
			if !ok {
				break
			}
			delete(rl.buffered, rl.next)
			t.deliver(src, dst, p)
			rl.next++
		}
	}
	t.sendAck(dst, src, rl.next)
}

// applyAck releases every pending frame below the cumulative ack on one
// send link, reporting message completions to the protocol layer and
// sampling the RTT from clean (never-retried) exchanges.
func (t *Transport) applyAck(k pair, ack uint32) {
	l := t.links[k]
	if l == nil {
		return
	}
	i := 0
	for ; i < len(l.pending) && l.pending[i].seq < ack; i++ {
		p := l.pending[i]
		if p.retries == 0 {
			sample := time.Since(p.sentAt)
			if l.srtt == 0 {
				l.srtt = sample
			} else {
				l.srtt += (sample - l.srtt) / 8
			}
		}
		if p.op == wire.OpMsg {
			p.conn.WireAcked(k.src, p.size)
		}
	}
	l.pending = l.pending[i:]
}

// deliver decodes one in-order envelope and hands it to the protocol layer
// through the Wire* entry points.
func (t *Transport) deliver(src, dst netem.NodeID, payload []byte) {
	m, err := wire.DecodeMsg(payload)
	if err != nil {
		t.stats.DecodeErrors++
		return
	}
	c := t.conns[m.Conn]
	if c == nil {
		t.stats.StaleFrames++
		return
	}
	switch m.Op {
	case wire.OpSyn:
		c.WireAccept()
	case wire.OpMsg:
		var pl any
		if m.Token != 0 {
			pl = t.payloads[m.Token]
			delete(t.payloads, m.Token)
		}
		c.WireDeliver(src, proto.Message{Kind: int(m.Kind), Size: m.Size, Payload: pl})
	case wire.OpClose:
		c.WirePeerClose(dst)
	}
}

// sendAck transmits one explicit cumulative ack (never queued, never
// retransmitted — the next data frame or duplicate re-ack repairs a lost
// one).
func (t *Transport) sendAck(from, to netem.NodeID, next uint32) {
	f := wire.Frame{Kind: wire.KindAck, Src: uint32(from), Dst: uint32(to), Ack: next}
	t.transmit(from, to, f.AppendEncode(nil))
}
