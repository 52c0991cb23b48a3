package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/ransub"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// rarestSample bounds how many availability entries the rarest strategies
// examine per pick (and so the length of the tie list).
const rarestSample = 64

// peer is the Bullet' state machine at one node.
type peer struct {
	s     *Session
	node  *proto.Node
	store *proto.BlockStore
	rs    *ransub.Agent
	rng   *sim.RNG

	isSource bool

	// senders and receivers are kept in id order, the order every loop over
	// them must take for the simulation to stay deterministic per seed. A
	// loop that drops senders as it goes walks a snapshot (sweepSenders).
	senders   proto.IDList[*senderPeer]
	receivers proto.IDList[*receiverPeer]

	// Per-block state is dense: one maxBlockID()-long slice each, sized
	// once for the life of the peer, and as narrow as its values allow —
	// block selection scans these at random, so what matters is whether
	// they stay in L1.
	//
	// rarity[b] counts how many current senders advertise block b; the
	// rarest strategies minimize it. A byte is enough: the sender set is at
	// most MaxPeers, or Config.StaticPeers ≤ maxStaticPeers.
	rarity []uint8
	// claims holds, per block, the sender it is currently requested from
	// (its table is sized at the first claim); it prevents duplicate pulls
	// (§2.4). Block selection reads want instead; dropSender needs the
	// owner.
	claims proto.Claims
	// want has bit b set iff block b is neither held nor claimed — the one
	// test block selection makes per candidate. It changes only where they
	// do: in claim, unclaim, hold and releaseClaims.
	want []uint64

	// Scratch reused for the life of the peer, so the per-message and
	// per-epoch loops build no containers: pickBlock's tie list, the sender
	// snapshot of the loops that drop as they go, acquireSenders' ranking
	// and the two trim rankings. No loop over one reaches the function that
	// fills it again: dropSender and dropReceiver deliver nothing
	// synchronously.
	ties         []int
	sweep        []*senderPeer
	scored       []scoredCandidate
	outSenders   []*senderPeer
	outReceivers []*receiverPeer

	// The Figure 2 hill climb, once per side: MAX_SENDERS climbs on
	// incoming bandwidth, MAX_RECEIVERS on outgoing.
	maxSenders   peerTarget
	maxReceivers peerTarget
	lastInTotal  float64
	lastOutTotal float64
	firstEpoch   bool

	// unpushed is what the source advertises until it has pushed the whole
	// file: an empty summary, made once.
	unpushed *proto.Summary

	complete    bool
	completedAt sim.Time
	duplicates  int

	// Source push state (source node only).
	nextPush   int
	pushedOnce bool
	pushEvent  sim.EventRef
}

func newPeer(s *Session, id netem.NodeID) *peer {
	p := &peer{
		s:          s,
		node:       s.rt.NewNode(id),
		store:      proto.NewBlockStore(s.maxBlockID()),
		rng:        s.rng.Stream(fmt.Sprintf("peer-%d", id)),
		isSource:   id == s.cfg.Source,
		rarity:     make([]uint8, s.maxBlockID()),
		claims:     proto.NewClaims(s.maxBlockID()),
		want:       make([]uint64, (s.maxBlockID()+63)/64),
		ties:       make([]int, 0, rarestSample),
		firstEpoch: true,
	}
	target := DefaultPeerTarget
	if s.cfg.StaticPeers > 0 {
		target = s.cfg.StaticPeers
	}
	p.maxSenders.n, p.maxReceivers.n = target, target
	if s.cfg.MaxSendersCap > 0 && target > s.cfg.MaxSendersCap {
		p.maxSenders.n = s.cfg.MaxSendersCap
	}
	if p.isSource {
		// The source holds the whole file; in encoded mode blocks are
		// generated lazily as the push stream advances, and in stream
		// mode they are released by the pacing timer at the live edge.
		if !s.cfg.Encoded && s.cfg.StreamBps <= 0 {
			for i := 0; i < s.cfg.NumBlocks; i++ {
				p.store.Add(i, 0)
			}
		}
		p.complete = true
	}
	p.releaseClaims() // nothing is claimed yet: want starts as the blocks not held

	p.rs = ransub.New(p.node, s.rng.Stream(fmt.Sprintf("ransub-%d", id)), ransub.DefaultPeriod)
	p.rs.Summarize = p.summarize
	p.rs.OnDistribute = p.onDistribute

	p.node.OnMessage = p.onMessage
	p.node.OnClose = p.onConnClose
	return p
}

// summarize advertises this node's availability through RanSub. The source
// only advertises itself once it has pushed the entire file (§3.3.5).
func (p *peer) summarize() ransub.Candidate {
	if p.isSource && !p.pushedOnce {
		if p.unpushed == nil {
			p.unpushed = proto.NewSummary(proto.NewBlockStore(1))
		}
		return ransub.Candidate{ID: p.node.ID, Summary: p.unpushed}
	}
	return ransub.Candidate{ID: p.node.ID, Summary: proto.NewSummary(p.store)}
}

// sweepSenders snapshots the sender list into peer-owned scratch for a loop
// that drops senders as it goes; dropSender edits the live list in place.
func (p *peer) sweepSenders() []*senderPeer {
	p.sweep = append(p.sweep[:0], p.senders...)
	return p.sweep
}

// ---------------------------------------------------------------------------
// Message dispatch

func (p *peer) onMessage(c *proto.Conn, m proto.Message) {
	if m.Kind >= proto.ControlKindBase {
		p.rs.Handle(c, m)
		return
	}
	switch m.Kind {
	case KindHello:
		p.onHello(c)
	case KindReject:
		p.onReject(c)
	case KindDiff:
		d := p.s.diffs.Delivered(m.Payload)
		p.onDiff(c, d)
		p.s.diffs.Put(d)
	case KindDiffReq:
		p.onDiffReq(c)
	case KindRequest:
		rm := p.s.reqs.Delivered(m.Payload)
		p.onRequest(c, rm)
		p.s.reqs.Put(rm)
	case KindBlock:
		bm := p.s.blocks.Delivered(m.Payload)
		p.onBlock(c, bm)
		p.s.blocks.Put(bm)
	case KindPush:
		bm := p.s.blocks.Delivered(m.Payload)
		p.onPush(c, bm)
		p.s.blocks.Put(bm)
	}
}

// ---------------------------------------------------------------------------
// Receiver side: establishing senders, requesting, receiving

// addSender dials a candidate and sends the peering hello.
func (p *peer) addSender(id netem.NodeID) {
	if id == p.node.ID {
		return
	}
	if p.senders.Has(id) {
		return
	}
	c := p.node.Dial(id)
	c.IsData = isDataKind
	spare := p.s.takeSpare()
	sp := &senderPeer{
		id:          id,
		conn:        c,
		avail:       spare.avail,
		advertised:  spare.advertised,
		meter:       spare.meter,
		desired:     float64(InitialOutstanding),
		markBlock:   -2,
		lastArrival: p.s.rt.Now(),
		addedAt:     p.s.rt.Now(),
		lastUseful:  p.s.rt.Now(),
	}
	if p.s.cfg.StaticOutstanding > 0 {
		sp.desired = float64(p.s.cfg.StaticOutstanding)
	}
	p.senders.Insert(sp)
	c.SetState(p.node, sp)
	c.Send(p.node, proto.Message{Kind: KindHello, Size: 16})
}

// dropSender closes the peering, reclaims its outstanding requests and
// gives its per-block memory to the session's spares.
func (p *peer) dropSender(sp *senderPeer, closeConn bool) {
	if sp.closed {
		return
	}
	sp.closed = true
	p.senders.Remove(sp.id)
	// A block is only ever claimed at a sender that advertised it, so one
	// pass over the advertised bits hands back both rarity and claims.
	sp.advertised.ForEachSet(func(id int) {
		if p.rarity[id] > 0 {
			p.rarity[id]--
		}
		if p.claims.HeldBy(id, sp.id) {
			p.unclaim(id)
		}
	})
	p.s.putSpare(sp)
	if closeConn {
		sp.conn.Close(p.node)
	}
	// Blocks freed from this sender may be requestable elsewhere.
	for _, other := range p.senders {
		p.fillRequests(other)
	}
}

// onReject handles a sender refusing the peering.
func (p *peer) onReject(c *proto.Conn) {
	if sp, ok := c.State(p.node).(*senderPeer); ok {
		p.dropSender(sp, true)
	}
}

// onDiff merges newly advertised blocks into the sender's availability. The
// ids it adds are collected first and appended in one call, so that a long
// diff grows the list at most once, and by what it adds, not by its length.
func (p *peer) onDiff(c *proto.Conn, d *diffMsg) {
	sp, ok := c.State(p.node).(*senderPeer)
	if !ok || sp.closed {
		return
	}
	added := 0
	fresh := p.s.fresh[:0]
	for _, id := range d.ids {
		if id >= p.store.NumBlocks() || !sp.advertised.Set(id) {
			continue
		}
		if p.rarity[id] == math.MaxUint8 {
			// Unreachable from configuration: a block is counted once per
			// live sender, and Config caps the sender set below this.
			panic(fmt.Sprintf("core: block %d advertised by more than %d senders", id, math.MaxUint8))
		}
		p.rarity[id]++
		added++
		if !p.store.Have(id) {
			fresh = append(fresh, int32(id))
		}
	}
	sp.avail = append(sp.avail, fresh...)
	p.s.fresh = fresh
	if added > 0 {
		sp.lastUseful = p.s.rt.Now()
	}
	// Any diff answers the request in flight: the sender holds a request it
	// has no news for and answers it with its next arrival, so a diff after
	// the initial one always carries something, and asking again at once
	// costs one held request, not a ping-pong of empty diffs.
	sp.diffReqPending = false
	p.fillRequests(sp)
}

// fillRequests issues block requests up to the sender's outstanding limit,
// choosing blocks by the configured strategy.
func (p *peer) fillRequests(sp *senderPeer) {
	if sp.closed || p.complete {
		return
	}
	now := p.s.rt.Now()
	for sp.outstanding < sp.limit() {
		id, ok := p.pickBlock(sp)
		if !ok {
			break
		}
		p.claim(id, sp.id)
		sp.outstanding++
		p.s.RequestsSent++
		if sp.markPending && sp.markBlock == -1 {
			sp.markBlock = id // the marked request (§3.3.3 settling)
		}
		rm := p.s.reqs.Get()
		rm.id = id
		rm.totalInBW = p.inRate()
		rm.perSenderBW = sp.meter.Rate(now, 5)
		sp.conn.Send(p.node, proto.Message{Kind: KindRequest, Size: 24, Payload: rm})
	}
	// Nearly out of known blocks at this sender: ask for a fresh diff
	// before going idle (§3.3.4 self-clocking).
	if len(sp.avail) <= sp.limit() && !sp.diffReqPending && !p.complete {
		sp.diffReqPending = true
		sp.conn.Send(p.node, proto.Message{Kind: KindDiffReq, Size: 16})
	}
}

// claim marks block id requested from the given sender.
func (p *peer) claim(id int, sender netem.NodeID) {
	p.claims.Claim(id, sender)
	p.want[id>>6] &^= 1 << (uint(id) & 63)
}

// unclaim marks block id requested from nobody.
func (p *peer) unclaim(id int) {
	p.claims.Unclaim(id)
	if !p.store.Have(id) {
		p.want[id>>6] |= 1 << (uint(id) & 63)
	}
}

// hold records block id in the store, reporting whether it was new.
func (p *peer) hold(id int, now sim.Time) bool {
	if !p.store.Add(id, now) {
		return false
	}
	p.want[id>>6] &^= 1 << (uint(id) & 63)
	return true
}

// releaseClaims forgets every claim at once, which leaves wanted exactly
// the blocks not held.
func (p *peer) releaseClaims() {
	p.claims.Clear()
	for i := range p.want {
		p.want[i] = ^uint64(0)
	}
	if tail := p.store.NumBlocks() & 63; tail != 0 {
		p.want[len(p.want)-1] = 1<<uint(tail) - 1
	}
	held, _ := p.store.ArrivalsSince(0)
	for _, id := range held {
		p.want[id>>6] &^= 1 << (uint(id) & 63)
	}
}

// pickBlock selects and removes the next block to request from sp per the
// session's request strategy. Blocks already held or claimed elsewhere are
// skipped (and compacted out of the availability list as encountered).
func (p *peer) pickBlock(sp *senderPeer) (int, bool) {
	want := p.want
	usable := func(id int32) bool { return want[id>>6]&(1<<(uint32(id)&63)) != 0 }
	avail := sp.avail

	switch p.s.cfg.Strategy {
	case FirstEncountered:
		for len(avail) > 0 {
			id := avail[0]
			avail = avail[1:]
			if usable(id) {
				sp.avail = avail
				return int(id), true
			}
		}
		sp.avail = avail
		return 0, false

	case Random:
		for len(avail) > 0 {
			i := p.rng.Pick(len(avail))
			id := avail[i]
			avail[i] = avail[len(avail)-1]
			avail = avail[:len(avail)-1]
			if usable(id) {
				sp.avail = avail
				return int(id), true
			}
		}
		sp.avail = avail
		return 0, false

	case Rarest, RarestRandom:
		// Compact unusable entries, then sample for the rarest.
		w := 0
		for _, id := range avail {
			if usable(id) {
				avail[w] = id
				w++
			}
		}
		avail = avail[:w]
		sp.avail = avail
		if len(avail) == 0 {
			return 0, false
		}
		n := len(avail)
		sampleN := n
		if sampleN > rarestSample {
			sampleN = rarestSample
		}
		bestRarity := math.MaxInt
		ties := p.ties[:0]
		for k := 0; k < sampleN; k++ {
			i := k
			if n > rarestSample {
				i = p.rng.Pick(n)
			}
			r := int(p.rarity[avail[i]])
			switch {
			case r < bestRarity:
				bestRarity = r
				ties = ties[:0]
				ties = append(ties, i)
			case r == bestRarity:
				ties = append(ties, i)
			}
		}
		p.ties = ties
		bestIdx := ties[0]
		if p.s.cfg.Strategy == RarestRandom {
			bestIdx = ties[p.rng.Pick(len(ties))]
		} else {
			for _, i := range ties { // deterministic: lowest block id
				if avail[i] < avail[bestIdx] {
					bestIdx = i
				}
			}
		}
		id := avail[bestIdx]
		avail[bestIdx] = avail[len(avail)-1]
		sp.avail = avail[:len(avail)-1]
		return int(id), true
	}
	return 0, false
}

// onBlock processes a pulled block arrival.
func (p *peer) onBlock(c *proto.Conn, bm *blockMsg) {
	sp, ok := c.State(p.node).(*senderPeer)
	if !ok || sp.closed {
		return
	}
	now := p.s.rt.Now()
	if sp.outstanding > 0 {
		sp.outstanding--
	}
	sp.lastArrival = now
	p.unclaim(bm.id)
	sp.meter.Add(now, p.s.cfg.BlockSize)
	p.s.BlocksPulled++
	p.manageOutstanding(sp, bm)
	p.acceptBlock(bm.id)
	p.fillRequests(sp)
}

// manageOutstanding is the §3.3.3/Figure 3 controller, run on every block
// arrival unless a marked request is still settling.
//
// Baseline: desired = (requests still in flight) + 1 — keep one more block
// requested than currently outstanding. Corrections: idle time at the
// sender (wasted < 0) converts, at the receiver-measured bandwidth, into
// additional blocks we could have had requested (α = 0.4); sender queue
// depth beyond the one-block goal decreases the window (β = 0.226). When
// wasted > 0 already reflects a deep queue (inFront > 1) only the queue
// term applies, avoiding the double count the paper warns about. Increases
// take the ceiling (to actually saturate TCP); after any change the next
// request is marked and adjustments freeze until it arrives.
func (p *peer) manageOutstanding(sp *senderPeer, bm *blockMsg) {
	if p.s.cfg.StaticOutstanding > 0 {
		return
	}
	if sp.markPending {
		if bm.id == sp.markBlock {
			sp.markPending = false
			sp.markBlock = -2
		}
		return
	}
	bw := sp.meter.Rate(p.s.rt.Now(), 5)
	desired := float64(sp.outstanding) + 1
	if bm.wasted <= 0 || bm.inFront <= 1 {
		desired -= AlphaWasted * bm.wasted * bw / p.s.cfg.BlockSize
	}
	if bm.wasted > 0 && bm.inFront > 1 {
		desired -= float64(BetaQueued * float64(bm.inFront-1)) // one rounding per operation on every CPU: no fused multiply-add
	}
	if desired < 1 {
		desired = 1
	}
	switch {
	case desired > sp.desired:
		sp.desired = math.Ceil(desired)
	case desired < sp.desired:
		sp.desired = desired
	default:
		return
	}
	sp.markPending = true
	sp.markBlock = -1 // adopt the next request sent as the marked one
}

// acceptBlock holds a received block and passes it through the session's
// arrival step, completes the node at its goal, and triggers diff
// propagation to receivers.
func (p *peer) acceptBlock(id int) {
	now := p.s.rt.Now()
	if !p.s.Arrived(p.node.ID, id, p.store, p.hold(id, now)) {
		p.duplicates++
		return
	}
	if !p.complete && p.store.Count() >= p.s.cfg.goalBlocks() {
		p.complete = true
		p.completedAt = now
		// Release claims; no further requests will be issued.
		p.releaseClaims()
		p.s.Completed(p.node.ID, now)
	}
	// In the periodic-diff ablation the per-receiver timers propagate
	// arrivals instead.
	if p.s.cfg.PeriodicDiffs > 0 {
		return
	}
	p.tellReceivers()
}

// tellReceivers is the self-clocked diff push after an arrival (§3.3.4):
// receivers with nothing queued from us, and those whose diff request we
// hold, hear about new blocks immediately.
func (p *peer) tellReceivers() {
	for _, rp := range p.receivers {
		if rp.held || rp.conn.QueueLen(p.node) == 0 {
			p.sendDiff(rp, false)
		}
	}
}

// ---------------------------------------------------------------------------
// Sender side: accepting receivers, serving diffs and blocks

// onHello admits or rejects a new receiver.
func (p *peer) onHello(c *proto.Conn) {
	hardMax := MaxPeers
	if p.s.cfg.StaticPeers > 0 {
		hardMax = p.s.cfg.StaticPeers
	}
	if len(p.receivers) >= hardMax {
		p.s.Rejects++
		c.Send(p.node, proto.Message{Kind: KindReject, Size: 16})
		return
	}
	peerID := c.Peer(p.node).ID
	if i, dup := p.receivers.Index(peerID); dup {
		// Stale peering replaced by a fresh dial.
		p.dropReceiver(p.receivers[i], true)
	}
	rp := &receiverPeer{id: peerID, conn: c}
	p.receivers.Insert(rp)
	c.SetState(p.node, rp)
	p.sendDiff(rp, true)
	if period := p.s.cfg.PeriodicDiffs; period > 0 {
		p.s.rt.AfterEvent(period, p, evPeriodicDiff, rp)
	}
}

// Typed timer kinds dispatched through peer.OnEvent.
const (
	evPeriodicDiff int32 = iota
	evPushPump
	evStreamRelease
)

// OnEvent dispatches the peer's typed timers (engine plumbing).
func (p *peer) OnEvent(kind int32, payload any) {
	switch kind {
	case evPeriodicDiff:
		rp := payload.(*receiverPeer)
		if rp.closed {
			return
		}
		p.sendDiff(rp, false)
		p.s.rt.AfterEvent(p.s.cfg.PeriodicDiffs, p, evPeriodicDiff, rp)
	case evPushPump:
		p.pushPump()
	case evStreamRelease:
		p.releaseStreamBlock()
	}
}

// sendDiff advertises arrivals since the receiver's cursor, which answers a
// held diff request. The initial diff after a hello describes everything
// held so far (sent as a bitmap on the wire); increments are id lists, and
// never empty.
func (p *peer) sendDiff(rp *receiverPeer, initial bool) {
	ids, cursor := p.store.ArrivalsSince(rp.diffCursor)
	if len(ids) == 0 && !initial {
		return
	}
	rp.diffCursor = cursor
	rp.held = false
	size := float64(float64(len(ids))*4) + 16
	if initial {
		size = p.store.Bitmap().WireSize() + 16
	}
	p.s.DiffsSent++
	d := p.s.diffs.Get()
	d.ids, d.initial = ids[:len(ids):len(ids)], initial
	rp.conn.Send(p.node, proto.Message{Kind: KindDiff, Size: size, Payload: d})
}

// onDiffReq answers an explicit diff request with the arrivals since the
// receiver's cursor. With none, it holds the request instead of answering
// empty: the next arrival answers it (tellReceivers), or in the
// periodic-diff ablation the receiver's next timer that has news.
func (p *peer) onDiffReq(c *proto.Conn) {
	rp, ok := c.State(p.node).(*receiverPeer)
	if !ok {
		return
	}
	rp.held = true
	p.sendDiff(rp, false)
}

// onRequest serves one block, measuring the in_front and wasted values the
// receiver's controller consumes (§3.3.3: "with each block it sends,
// sender measures and reports two values to the receiver").
func (p *peer) onRequest(c *proto.Conn, rm *reqMsg) {
	rp, ok := c.State(p.node).(*receiverPeer)
	if !ok {
		return
	}
	rp.totalInBW = rm.totalInBW
	rp.perSenderBW = rm.perSenderBW
	if !p.store.Have(rm.id) {
		return // stale request; receiver will re-request elsewhere
	}
	inFront := c.QueueLen(p.node)
	var wasted float64
	if idle := c.IdleFor(p.node); idle > 0 {
		wasted = -idle
	} else {
		// Positive wasted: service time ≈ queued bytes at the
		// receiver-observed per-connection rate.
		rate := rm.perSenderBW
		if rate <= 0 {
			rate = p.s.cfg.BlockSize // pessimistic floor: 1 block/s
		}
		wasted = c.QueueBytes(p.node) / rate
	}
	bm := p.s.blocks.Get()
	bm.id, bm.inFront, bm.wasted = rm.id, inFront, wasted
	c.Send(p.node, proto.Message{Kind: KindBlock, Size: p.s.cfg.BlockSize + 16, Payload: bm})
}

// dropReceiver tears down a receiver peering.
func (p *peer) dropReceiver(rp *receiverPeer, closeConn bool) {
	if rp.closed {
		return
	}
	rp.closed = true
	p.receivers.Remove(rp.id)
	if closeConn {
		rp.conn.Close(p.node)
	}
}

// onConnClose handles either side of a peering disappearing.
func (p *peer) onConnClose(c *proto.Conn) {
	switch st := c.State(p.node).(type) {
	case *senderPeer:
		if !st.closed {
			p.dropSender(st, false)
		}
	case *receiverPeer:
		if !st.closed {
			p.dropReceiver(st, false)
		}
	}
}

// ---------------------------------------------------------------------------
// Epoch processing: the Figure 2 hill climb, trimming, and peer acquisition

// onDistribute is the heart of adaptive peering: runs every RanSub epoch.
// The candidate set is valid only during the call.
func (p *peer) onDistribute(epoch int, set []ransub.Candidate) {
	now := p.s.rt.Now()

	inTotal := p.node.InMeter.Total()
	outTotal := p.node.OutMeter.Total()
	inBW := (inTotal - p.lastInTotal) / ransub.DefaultPeriod
	outBW := (outTotal - p.lastOutTotal) / ransub.DefaultPeriod
	p.lastInTotal = inTotal
	p.lastOutTotal = outTotal

	// Refresh per-peer epoch rates.
	for _, sp := range p.senders {
		got := sp.conn.DeliveredFrom(sp.conn.Peer(p.node))
		sp.rate = (got - sp.epochBytes) / ransub.DefaultPeriod
		sp.epochBytes = got
	}
	for _, rp := range p.receivers {
		sent := rp.conn.DeliveredFrom(p.node)
		rp.rate = (sent - rp.epochBytes) / ransub.DefaultPeriod
		rp.epochBytes = sent
	}

	if !p.complete {
		p.reapStaleSenders(now)
		p.replaceExhaustedSenders(now, set)
	}

	// The hill climb on peer-set size is what StaticPeers pins; trimming
	// of underperformers (and replacement from fresh candidates) stays on
	// in both modes — without rotation a statically-sized peer set locks
	// into whatever it first connected to.
	if p.s.cfg.StaticPeers == 0 && !p.firstEpoch {
		sendersCap := MaxPeers
		if c := p.s.cfg.MaxSendersCap; c > 0 && c < MaxPeers {
			sendersCap = c
		}
		p.maxSenders.climb(len(p.senders), inBW, sendersCap)
		p.maxReceivers.climb(len(p.receivers), outBW, MaxPeers)
		p.enforcePeerTargets()
	}
	p.trimSenders(now)
	p.trimReceivers()
	if !p.complete {
		p.acquireSenders(set)
	}

	p.maxSenders.prevNum, p.maxSenders.prevBW = len(p.senders), inBW
	p.maxReceivers.prevNum, p.maxReceivers.prevBW = len(p.receivers), outBW
	p.firstEpoch = false
}

// peerTarget is one side of the Figure 2 hill climb: the adaptive bound n on
// a peer set's size (MAX_SENDERS or MAX_RECEIVERS), the previous epoch's
// observation it climbs from, and the exploration the prose describes.
type peerTarget struct {
	n       int
	prevNum int
	prevBW  float64
	// probeDown steers the "try out a new connection or close a current
	// connection" exploration (§3.3.1) when the climb has no gradient to
	// follow: a punished upward move flips it to downward probing and vice
	// versa.
	probeDown bool
}

// climb moves the bound one step, given the set's size now and the
// bandwidth the epoch saw on its side, and keeps it inside [MinPeers, hi]
// (hi wins where a configured cap sits below MinPeers). The bound moves only
// when the set is at it: a set whose size changed last epoch keeps going the
// way that made it faster, and one that has been stable at the bound for a
// whole epoch probes — one more connection by default, one fewer if upward
// moves keep getting punished.
func (t *peerTarget) climb(size int, bw float64, hi int) {
	if size != t.n {
		return
	}
	switch {
	case t.prevNum == 0:
		t.n++ // try to add a new peer by default
	case size == t.prevNum:
		t.n += t.step()
	default:
		// Growing and faster, or shrinking and no faster: up. Otherwise down.
		t.probeDown = (size > t.prevNum) != (bw > t.prevBW)
		t.n += t.step()
	}
	t.n = min(max(t.n, MinPeers), hi)
}

func (t *peerTarget) step() int {
	if t.probeDown {
		return -1
	}
	return 1
}

// enforcePeerTargets sheds peers when an adaptive target moved below the
// current set size: without this, a lowered MAX_SENDERS would never take
// effect. The slowest sender / lowest-ratio receiver goes first. Each loop
// ends only because a drop leaves its set; a dropped peer still listed
// (a set that lost its id order, say) would spin here forever, so it panics.
func (p *peer) enforcePeerTargets() {
	for len(p.senders) > p.maxSenders.n {
		var worst *senderPeer
		for _, sp := range p.senders {
			if worst == nil || sp.rate < worst.rate {
				worst = sp
			}
		}
		if worst.closed {
			panic(fmt.Sprintf("core: at %.3f s node %d still lists sender %d after dropping it", float64(p.s.rt.Now()), p.node.ID, worst.id))
		}
		p.dropSender(worst, true)
	}
	for len(p.receivers) > p.maxReceivers.n {
		var worst *receiverPeer
		for _, rp := range p.receivers {
			if worst == nil || rp.rate < worst.rate {
				worst = rp
			}
		}
		if worst.closed {
			panic(fmt.Sprintf("core: at %.3f s node %d still lists receiver %d after dropping it", float64(p.s.rt.Now()), p.node.ID, worst.id))
		}
		p.dropReceiver(worst, true)
	}
}

// sigmaOutliers is the §3.3.1 trimming rule: the members of a peer set
// scoring more than TrimSigma standard deviations below the set's mean,
// lowest score first, exempt members (when there is such a rule) left out;
// nobody when the set is already at its floor or the scores are all
// approximately equal.
//
// The result is out's array refilled from the start.
func sigmaOutliers[P any](out []P, set []P, floor int, score func(P) float64, exempt func(P) bool) []P {
	out = out[:0]
	if len(set) <= floor {
		return out
	}
	var st trace.Stats
	for _, x := range set {
		st.Add(score(x))
	}
	if st.Std() <= 0 {
		return out
	}
	cut := st.Mean() - float64(TrimSigma*st.Std())
	for _, x := range set {
		if score(x) < cut && (exempt == nil || !exempt(x)) {
			out = append(out, x)
		}
	}
	slices.SortStableFunc(out, func(a, b P) int { return cmp.Compare(score(a), score(b)) })
	return out
}

// trimSenders disconnects the outliers in received bandwidth, never dropping
// below the trim floor. Senders younger than one epoch are exempt: their
// partial-epoch rates are not comparable yet.
func (p *peer) trimSenders(now sim.Time) {
	young := func(sp *senderPeer) bool { return float64(now-sp.addedAt) < ransub.DefaultPeriod }
	rate := func(sp *senderPeer) float64 { return sp.rate }
	p.outSenders = sigmaOutliers(p.outSenders, p.senders, p.trimFloor(), rate, young)
	for _, sp := range p.outSenders {
		if len(p.senders) <= p.trimFloor() {
			break
		}
		p.s.rt.Trace("trim", p.node.ID, sp.id, "sender")
		p.dropSender(sp, true)
	}
}

// trimFloor is the sender/receiver count below which trimming stops: the
// paper's hard minimum in adaptive mode, or just below the pinned size in
// static mode (so rotation remains possible).
func (p *peer) trimFloor() int {
	if s := p.s.cfg.StaticPeers; s > 0 {
		f := s - 2
		if f < 1 {
			f = 1
		}
		return f
	}
	return MinPeers
}

// trimReceivers disconnects receivers by the ratio rule (§3.3.1): those
// receiving the smallest fraction of their total incoming bandwidth from
// us are the least harmed by a disconnect.
func (p *peer) trimReceivers() {
	ratio := func(rp *receiverPeer) float64 {
		total := rp.totalInBW
		if total <= 0 {
			total = math.Max(rp.rate, 1)
		}
		return rp.rate / total
	}
	p.outReceivers = sigmaOutliers(p.outReceivers, p.receivers, p.trimFloor(), ratio, nil)
	for _, rp := range p.outReceivers {
		if len(p.receivers) <= p.trimFloor() {
			break
		}
		p.s.rt.Trace("trim", p.node.ID, rp.id, "receiver")
		p.dropReceiver(rp, true)
	}
}

// reapStaleSenders closes senders that have not delivered anything for
// several epochs despite outstanding requests — the failure-detection
// backstop that reclaims blocks claimed on a dead or drastically slowed
// connection.
func (p *peer) reapStaleSenders(now sim.Time) {
	staleAfter := sim.Time(3 * ransub.DefaultPeriod)
	for _, sp := range p.sweepSenders() {
		if sp.outstanding > 0 && now-sp.lastArrival > staleAfter {
			p.dropSender(sp, true)
		}
	}
}

// replaceExhaustedSenders drops senders that have advertised nothing new
// for two epochs and have nothing left for us, provided the current
// candidate set offers a useful replacement. This is the data-driven side
// of Bullet's peering: a peer with no useful blocks is dead weight no
// matter how fast its link is.
func (p *peer) replaceExhaustedSenders(now sim.Time, set []ransub.Candidate) {
	if len(set) == 0 || p.store.Missing() == 0 {
		return
	}
	// Is there at least one non-sender candidate with useful data?
	anyUseful := false
	for _, c := range set {
		if c.ID == p.node.ID || c.Summary == nil {
			continue
		}
		if p.senders.Has(c.ID) {
			continue
		}
		if c.Summary.UsefulTo(p.store, 64) > 0 {
			anyUseful = true
			break
		}
	}
	if !anyUseful {
		return
	}
	idleCut := sim.Time(2 * ransub.DefaultPeriod)
	for _, sp := range p.sweepSenders() {
		if len(sp.avail) == 0 && sp.outstanding == 0 && now-sp.lastUseful > idleCut {
			p.dropSender(sp, true)
		}
	}
}

// acquireSenders fills the sender set up to MAX_SENDERS from the epoch's
// candidate set, preferring candidates with the most useful blocks.
func (p *peer) acquireSenders(set []ransub.Candidate) {
	need := p.maxSenders.n - len(p.senders)
	if need <= 0 || len(set) == 0 {
		return
	}
	cands := p.scored[:0]
	for _, c := range set {
		if c.ID == p.node.ID {
			continue
		}
		if p.senders.Has(c.ID) {
			continue
		}
		if c.Summary == nil || c.Summary.Count == 0 {
			continue
		}
		u := c.Summary.UsefulTo(p.store, 64)
		if u <= 0 && p.store.Missing() > 0 {
			continue
		}
		cands = append(cands, scoredCandidate{c.ID, u})
	}
	p.scored = cands
	// A total order (candidate ids are distinct), so any sort agrees.
	slices.SortFunc(cands, func(a, b scoredCandidate) int {
		return cmp.Or(cmp.Compare(b.useful, a.useful), cmp.Compare(a.id, b.id))
	})
	for i := 0; i < len(cands) && need > 0; i++ {
		p.s.rt.Trace("promote", p.node.ID, cands[i].id, "sender")
		p.addSender(cands[i].id)
		need--
	}
}

// scoredCandidate is one acquireSenders ranking entry.
type scoredCandidate struct {
	id     netem.NodeID
	useful float64
}

// inRate returns this node's total incoming bandwidth over a recent window.
func (p *peer) inRate() float64 {
	return p.node.InMeter.Rate(p.s.rt.Now(), 5)
}
