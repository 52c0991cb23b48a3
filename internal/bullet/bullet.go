// Package bullet implements the original Bullet system (Kostić et al.,
// SOSP'03), the paper's second baseline. Architecture: the source streams
// the file down an overlay tree, with each interior node forwarding a
// *disjoint* subset of what it receives to each child (tree bandwidth is
// monotonically decreasing, so children receive partial data); RanSub
// spreads per-node availability summaries; and every node maintains a
// fixed-size mesh of 10 senders from which it pulls missing blocks via
// periodic reconciliation with a fixed outstanding window — the tunables
// Bullet' §3.3 replaces with adaptive mechanisms.
package bullet

import (
	"cmp"
	"fmt"
	"slices"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/ransub"
	"bulletprime/internal/sim"
)

// Fixed Bullet parameters (the released system's defaults per §3.3.1).
const (
	// SenderTarget is the fixed number of mesh senders per node.
	SenderTarget = 10
	// ReceiverCap is the fixed number of mesh receivers a node serves;
	// beyond it peering requests are rejected (10 in the released Bullet).
	ReceiverCap = 10
	// MaxOutstanding is the fixed per-sender outstanding request limit.
	MaxOutstanding = 5
	// ReconcilePeriod is the periodic pull reconciliation interval (s).
	ReconcilePeriod = 5.0
	// pushQueueDepth bounds queued pushed blocks per tree child.
	pushQueueDepth = 3
	// pushPumpInterval is the source/interior push pump period (s).
	pushPumpInterval = 0.05
	// availLimit caps the ids in one availability answer: plenty per
	// period.
	availLimit = 4 * MaxOutstanding * int(ReconcilePeriod)
)

// Message kinds (RanSub kinds >= 1000 pass through).
const (
	kindPush   = iota + 1 // tree push of a block
	kindHello             // mesh peering request
	kindReject            // mesh peering refused
	kindRecon             // receiver's bitmap: "what do you have for me?"
	kindAvail             // sender's availability answer (missing-at-receiver ids)
	kindReq               // block request
	kindBlock             // pulled block
)

// A recon carries a bitmap snapshot that nobody writes (bPeer.snapshot),
// so every recon sent while the store is unchanged shares one. Requests,
// pushed and pulled blocks name one block id, carried as a pointer into
// the session's immutable index table (proto.IndexTable), so sending one
// allocates nothing.
type reconMsg struct{ have *proto.Bitmap }

// availMsg is a sender's availability answer. Answers are recycled through
// the session's free list: onMessage puts one back once onAvail has copied
// its ids, and the next answer reuses the id slice.
type availMsg struct {
	proto.Pooled
	ids []int
}

// Reset empties the answer and keeps its id slice.
func (m *availMsg) Reset() { m.ids = m.ids[:0] }

// Config parameterizes a Bullet session.
type Config struct {
	// Swarm is the cohort, the file, the live stream's rate and the
	// progress callbacks. The tree push and mesh reconciliation of a live
	// stream never run ahead of the released prefix.
	proto.Swarm

	RanSubPeriod float64
}

// Session is one Bullet dissemination run.
type Session struct {
	*proto.Swarm // cfg.Swarm, with its accounting: Complete, DoneAt, Duplicates

	rt  *proto.Runtime
	cfg Config
	rng *sim.RNG

	peers map[netem.NodeID]*bPeer

	index  proto.IndexTable
	avails proto.FreeList[availMsg, *availMsg]

	// Stats.
	RequestsSent int
	TreeDropped  int // pushed blocks dropped for lack of child capacity
	PushesSent   int // push transmissions (source + interior forwards)
}

// NewSession builds the nodes and their RanSub agents.
func NewSession(rt *proto.Runtime, cfg Config, rng *sim.RNG) *Session {
	if cfg.RanSubPeriod <= 0 {
		cfg.RanSubPeriod = ransub.DefaultPeriod
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 16 * 1024
	}
	s := &Session{
		rt:    rt,
		cfg:   cfg,
		rng:   rng,
		peers: make(map[netem.NodeID]*bPeer),
		index: proto.NewIndexTable(cfg.NumBlocks),
	}
	s.Swarm = &s.cfg.Swarm
	for _, id := range cfg.Members {
		s.peers[id] = newBPeer(s, id)
	}
	return s
}

// Start builds the control/data tree and begins pushing and reconciliation.
func (s *Session) Start() {
	ransub.Build(s.cfg.Members, s.cfg.Source, ransub.TreeDegree, s.rng.Stream("tree"), isDataKind, func(id netem.NodeID) *ransub.Agent { return s.peers[id].rs })
	src := s.peers[s.cfg.Source]
	src.rs.Start()
	if s.cfg.StreamBps > 0 {
		src.releaseStreamBlock()
	} else {
		src.pushPump()
	}
}

func isDataKind(kind int) bool { return kind == kindBlock || kind == kindPush }

// sender is receiver-side mesh state.
type sender struct {
	id          netem.NodeID
	conn        *proto.Conn
	avail       []int // known-available, missing here
	outstanding int
	gotUseful   sim.Time // last time this sender gave a novel block
	closed      bool
}

func (sp *sender) NodeID() netem.NodeID { return sp.id }

// receiver is sender-side mesh state.
type receiver struct {
	id     netem.NodeID
	conn   *proto.Conn
	closed bool
}

// bPeer is one Bullet node.
type bPeer struct {
	s     *Session
	node  *proto.Node
	store *proto.BlockStore
	rs    *ransub.Agent
	rng   *sim.RNG

	isSource bool

	senders   proto.IDList[*sender]
	receivers map[netem.NodeID]*receiver
	// claims holds, per block, the sender it is requested from.
	claims proto.Claims

	// snap is the last snapshot of the store's bitmap, taken when the store
	// held snapCount blocks; recons share it until the store grows.
	snap      *proto.Bitmap
	snapCount int

	// Scratch reused for the life of the peer: onDistribute's sender
	// snapshot (it drops senders as it goes) and its ranked candidates.
	sweep []*sender
	cs    []scoredCandidate

	// Tree push state.
	srcNext     int  // source: next block to push
	fwdChild    int  // interior: round-robin forward pointer
	pumpPending bool // source pump scheduled

	complete bool
}

func newBPeer(s *Session, id netem.NodeID) *bPeer {
	p := &bPeer{
		s:         s,
		node:      s.rt.NewNode(id),
		store:     proto.NewBlockStore(s.cfg.NumBlocks),
		rng:       s.rng.Stream(fmt.Sprintf("bullet-%d", id)),
		isSource:  id == s.cfg.Source,
		receivers: make(map[netem.NodeID]*receiver),
		claims:    proto.NewClaims(s.cfg.NumBlocks),
	}
	if p.isSource {
		if s.cfg.StreamBps <= 0 {
			for i := 0; i < s.cfg.NumBlocks; i++ {
				p.store.Add(i, 0)
			}
		}
		p.complete = true
	}
	p.rs = ransub.New(p.node, s.rng.Stream(fmt.Sprintf("bullet-rs-%d", id)), s.cfg.RanSubPeriod)
	p.rs.Summarize = func() ransub.Candidate {
		return ransub.Candidate{ID: id, Summary: proto.NewSummary(p.store)}
	}
	p.rs.OnDistribute = p.onDistribute
	p.node.OnMessage = p.onMessage
	p.node.OnClose = p.onConnClose
	// Periodic reconciliation, phase-shifted per node id for determinism
	// without synchronization artifacts.
	phase := ReconcilePeriod * float64(int(id)%10) / 10
	s.rt.AfterEvent(ReconcilePeriod+phase, p, evReconcile, nil)
	return p
}

// Typed timer kinds dispatched through bPeer.OnEvent.
const (
	evReconcile int32 = iota
	evPushPump
	evStreamRelease
)

// OnEvent dispatches the peer's periodic typed timers (engine plumbing).
func (p *bPeer) OnEvent(kind int32, _ any) {
	switch kind {
	case evReconcile:
		p.reconcile()
	case evPushPump:
		p.pumpPending = false
		p.pushPump()
	case evStreamRelease:
		p.releaseStreamBlock()
	}
}

// releaseStreamBlock emits the next live block at the source
// (proto.Swarm.Release) and lets the tree push catch up.
func (p *bPeer) releaseStreamBlock() {
	id, next := p.s.Release()
	if id < 0 {
		return
	}
	p.store.Add(id, p.s.rt.Now())
	if next > 0 {
		p.s.rt.AfterEvent(next, p, evStreamRelease, nil)
	}
	p.pushPump()
}

func (p *bPeer) onMessage(c *proto.Conn, m proto.Message) {
	if m.Kind >= 1000 {
		p.rs.Handle(c, m)
		return
	}
	switch m.Kind {
	case kindPush:
		p.onPush(proto.IndexOf(m.Payload))
	case kindHello:
		p.onHello(c)
	case kindReject:
		if sp, ok := c.State(p.node).(*sender); ok {
			p.dropSender(sp, true)
		}
	case kindRecon:
		p.onRecon(c, m.Payload.(reconMsg))
	case kindAvail:
		am := p.s.avails.Delivered(m.Payload)
		p.onAvail(c, am)
		p.s.avails.Put(am)
	case kindReq:
		p.onReq(c, proto.IndexOf(m.Payload))
	case kindBlock:
		p.onBlockArrival(c, proto.IndexOf(m.Payload))
	}
}

// ---------------------------------------------------------------------------
// Tree push: disjoint subsets down branches

// pushPump advances the source push: each block goes to exactly one child
// (disjoint data down branches), round-robin, skipping full pipes. A
// live-stream source only pushes blocks it has released.
func (p *bPeer) pushPump() {
	if p.s.Complete() {
		return
	}
	total := p.s.Pushable()
	for p.srcNext < total {
		if !p.forwardToOneChild(p.srcNext) {
			break
		}
		p.srcNext++
	}
	if p.srcNext < total && !p.pumpPending {
		p.pumpPending = true
		p.s.rt.AfterEvent(pushPumpInterval, p, evPushPump, nil)
	}
}

// forwardToOneChild sends the block to the next child with queue room; it
// returns false if every child pipe is full.
func (p *bPeer) forwardToOneChild(id int) bool {
	children := p.rs.Children()
	n := len(children)
	if n == 0 {
		return true
	}
	for try := 0; try < n; try++ {
		c := children[p.fwdChild]
		p.fwdChild = (p.fwdChild + 1) % n
		if c.Closed() || c.QueueLen(p.node) >= pushQueueDepth {
			continue
		}
		c.Send(p.node, proto.Message{
			Kind:    kindPush,
			Size:    p.s.cfg.BlockSize + 12,
			Payload: p.s.index.Ref(id),
		})
		p.s.PushesSent++
		return true
	}
	return false
}

// onPush stores a pushed block and forwards it to one child (interior
// nodes keep the stream flowing down, disjointly). If all child pipes are
// full the forward is dropped: the mesh will recover it — that lossy
// forwarding is Bullet's core design point.
func (p *bPeer) onPush(id int) {
	p.accept(id)
	if len(p.rs.Children()) > 0 {
		if !p.forwardToOneChild(id) {
			p.s.TreeDropped++
		}
	}
}

// ---------------------------------------------------------------------------
// Mesh pull

// onDistribute maintains the fixed-size sender set from the epoch's
// candidates.
func (p *bPeer) onDistribute(epoch int, set []ransub.Candidate) {
	if p.complete {
		return
	}
	// Replace senders that produced nothing useful for two periods.
	now := p.s.rt.Now()
	p.sweep = append(p.sweep[:0], p.senders...)
	for _, sp := range p.sweep {
		if now-sp.gotUseful > sim.Time(2*p.s.cfg.RanSubPeriod) {
			p.dropSender(sp, true)
		}
	}
	// Fill up to the fixed target, preferring useful candidates.
	cs := p.cs[:0]
	for _, c := range set {
		if c.ID == p.node.ID || c.Summary == nil || c.Summary.Count == 0 {
			continue
		}
		if p.senders.Has(c.ID) {
			continue
		}
		u := c.Summary.UsefulTo(p.store, 64)
		if u <= 0 {
			continue
		}
		cs = append(cs, scoredCandidate{c.ID, u})
	}
	p.cs = cs
	// A total order (candidate ids are distinct), so any sort agrees.
	slices.SortFunc(cs, func(a, b scoredCandidate) int {
		return cmp.Or(cmp.Compare(b.u, a.u), cmp.Compare(a.id, b.id))
	})
	for _, c := range cs {
		if len(p.senders) >= SenderTarget {
			break
		}
		p.addSender(c.id)
	}
}

// scoredCandidate is one onDistribute ranking entry.
type scoredCandidate struct {
	id netem.NodeID
	u  float64
}

func (p *bPeer) addSender(id netem.NodeID) {
	c := p.node.Dial(id)
	c.IsData = isDataKind
	sp := &sender{id: id, conn: c, gotUseful: p.s.rt.Now()}
	p.senders.Insert(sp)
	c.SetState(p.node, sp)
	c.Send(p.node, proto.Message{Kind: kindHello, Size: 16})
	// Kick off reconciliation for this sender immediately.
	p.sendRecon(sp)
}

// sendRecon sends the store's bitmap to a sender: "what do you have for me?"
func (p *bPeer) sendRecon(sp *sender) {
	have := p.snapshot()
	sp.conn.Send(p.node, proto.Message{Kind: kindRecon, Size: have.WireSize() + 16, Payload: reconMsg{have: have}})
}

// snapshot returns an immutable copy of the store's bitmap, taken afresh
// only when the store has grown since the last one (a store only adds).
func (p *bPeer) snapshot() *proto.Bitmap {
	if p.snap == nil || p.snapCount != p.store.Count() {
		p.snap, p.snapCount = p.store.Bitmap().Clone(), p.store.Count()
	}
	return p.snap
}

// dropSender ends a mesh peering and releases the blocks claimed from the
// sender; closeConn is false when the connection is already closing.
func (p *bPeer) dropSender(sp *sender, closeConn bool) {
	if sp.closed {
		return
	}
	sp.closed = true
	p.senders.Remove(sp.id)
	p.claims.Release(sp.id)
	if closeConn {
		sp.conn.Close(p.node)
	}
}

// reconcile runs the periodic pull: send our bitmap to every sender; their
// availability answers drive requests. This period-driven exchange (vs
// Bullet's self-clocked diffs) is a defining difference from Bullet'.
func (p *bPeer) reconcile() {
	if p.complete {
		return
	}
	for _, sp := range p.senders {
		p.sendRecon(sp)
	}
	if p.s.rt.Tracer != nil {
		p.s.rt.Trace("reconcile", p.node.ID, -1, fmt.Sprintf("%d senders", len(p.senders)))
	}
	p.s.rt.AfterEvent(ReconcilePeriod, p, evReconcile, nil)
}

// onHello registers a mesh receiver up to the fixed cap.
func (p *bPeer) onHello(c *proto.Conn) {
	id := c.Peer(p.node).ID
	if old, dup := p.receivers[id]; dup {
		old.closed = true
		delete(p.receivers, id)
	}
	if len(p.receivers) >= ReceiverCap {
		c.Send(p.node, proto.Message{Kind: kindReject, Size: 16})
		return
	}
	rp := &receiver{id: id, conn: c}
	p.receivers[id] = rp
	c.SetState(p.node, rp)
}

// onRecon answers with the ids the requester is missing that we hold.
func (p *bPeer) onRecon(c *proto.Conn, rm reconMsg) {
	am := p.s.avails.Get()
	if am.ids == nil {
		am.ids = make([]int, 0, availLimit) // kept while the answer is recycled
	}
	ids := am.ids
	held, _ := p.store.ArrivalsSince(0)
	for _, b := range held {
		if b < rm.have.Len() && !rm.have.Get(b) {
			ids = append(ids, b)
			if len(ids) >= availLimit {
				break
			}
		}
	}
	am.ids = ids
	c.Send(p.node, proto.Message{Kind: kindAvail, Size: float64(float64(len(ids))*4) + 16, Payload: am})
}

// onAvail merges an availability answer and issues requests.
func (p *bPeer) onAvail(c *proto.Conn, am *availMsg) {
	sp, ok := c.State(p.node).(*sender)
	if !ok || sp.closed {
		return
	}
	if sp.avail == nil {
		sp.avail = make([]int, 0, availLimit)
	}
	sp.avail = sp.avail[:0]
	for _, id := range am.ids {
		if !p.store.Have(id) {
			sp.avail = append(sp.avail, id)
		}
	}
	p.fill(sp)
}

// fill requests up to the fixed outstanding window, in random order
// (Bullet's request ordering predates the rarest strategies of Bullet').
func (p *bPeer) fill(sp *sender) {
	if sp.closed || p.complete {
		return
	}
	for sp.outstanding < MaxOutstanding && len(sp.avail) > 0 {
		i := p.rng.Pick(len(sp.avail))
		id := sp.avail[i]
		sp.avail[i] = sp.avail[len(sp.avail)-1]
		sp.avail = sp.avail[:len(sp.avail)-1]
		if p.store.Have(id) {
			continue
		}
		if p.claims.Held(id) {
			continue
		}
		p.claims.Claim(id, sp.id)
		sp.outstanding++
		p.s.RequestsSent++
		sp.conn.Send(p.node, proto.Message{Kind: kindReq, Size: 16, Payload: p.s.index.Ref(id)})
	}
}

// onReq serves a block.
func (p *bPeer) onReq(c *proto.Conn, id int) {
	if !p.store.Have(id) {
		return
	}
	c.Send(p.node, proto.Message{Kind: kindBlock, Size: p.s.cfg.BlockSize + 12, Payload: p.s.index.Ref(id)})
}

// onBlockArrival handles a pulled block.
func (p *bPeer) onBlockArrival(c *proto.Conn, id int) {
	sp, ok := c.State(p.node).(*sender)
	if !ok || sp.closed {
		return
	}
	if sp.outstanding > 0 {
		sp.outstanding--
	}
	p.claims.Unclaim(id)
	if p.accept(id) {
		sp.gotUseful = p.s.rt.Now()
	}
	p.fill(sp)
}

// accept stores a block through the session's arrival step; returns whether
// it was novel.
func (p *bPeer) accept(id int) bool {
	now := p.s.rt.Now()
	if !p.s.Arrived(p.node.ID, id, p.store, p.store.Add(id, now)) {
		return false
	}
	if !p.complete && p.store.Complete() {
		p.complete = true
		p.s.Completed(p.node.ID, now)
	}
	return true
}

func (p *bPeer) onConnClose(c *proto.Conn) {
	switch st := c.State(p.node).(type) {
	case *sender:
		p.dropSender(st, false)
	case *receiver:
		if !st.closed {
			st.closed = true
			delete(p.receivers, st.id)
		}
	}
}
