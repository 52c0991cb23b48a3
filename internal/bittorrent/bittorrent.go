// Package bittorrent implements the BitTorrent baseline the paper compares
// against (§5): a centralized tracker handing out random peer lists,
// tit-for-tat choking, local-rarest-first piece selection at piece
// granularity with 16 KB sub-piece requests, and the protocol's hard-coded
// constants (4 unchoke slots, 10 s rechoke, 30 s optimistic rotation, 5
// outstanding sub-requests per peer) whose inflexibility the paper calls
// out as limiting adaptability to changing network conditions.
package bittorrent

import (
	"cmp"
	"fmt"
	"slices"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

// Protocol constants mirroring the mainline BitTorrent client of the era.
const (
	// BlocksPerPiece groups 16 KB sub-pieces into 256 KB pieces; only
	// complete pieces are announced and served to others.
	BlocksPerPiece = 16
	// MaxOutstanding is the fixed per-peer outstanding sub-request limit
	// ("BitTorrent tries to maintain five outstanding blocks from each
	// peer by default", §4.5).
	MaxOutstanding = 5
	// UnchokeSlots is the number of reciprocation unchoke slots.
	UnchokeSlots = 3
	// RechokeInterval is the choker period in seconds.
	RechokeInterval = 10.0
	// OptimisticInterval rotates the optimistic unchoke (seconds).
	OptimisticInterval = 30.0
	// PeerSetSize is how many connections each node maintains.
	PeerSetSize = 10
	// TrackerPeers is how many peers the tracker returns per announce.
	TrackerPeers = 20
	// AnnounceInterval is the tracker re-announce period in seconds.
	AnnounceInterval = 30.0
)

// Message kinds.
const (
	kindHandshake = iota + 1 // bitfield exchange
	kindHave                 // piece completion announcement
	kindRequest              // sub-piece request
	kindPiece                // sub-piece data
	kindChoke
	kindUnchoke
)

// A handshake carries a snapshot of the sender's piece bitmap. HAVE,
// request and piece messages name one index (a piece or a block), carried
// as a pointer into the session's immutable index table (proto.IndexTable),
// so sending one allocates nothing.
type handshakeMsg struct{ pieces *proto.Bitmap }

// Config parameterizes a BitTorrent swarm.
type Config struct {
	// Swarm is the cohort, the file and the progress callbacks.
	proto.Swarm
}

// Session is one BitTorrent swarm.
type Session struct {
	*proto.Swarm // cfg.Swarm, with its accounting: Complete, DoneAt, Duplicates

	rt  *proto.Runtime
	cfg Config
	rng *sim.RNG

	tracker   *tracker
	peers     map[netem.NodeID]*btPeer
	numPieces int
	// index covers every block, and so every piece.
	index proto.IndexTable

	// Stats.
	RequestsSent int
}

// NewSession builds the swarm; Start begins dissemination.
func NewSession(rt *proto.Runtime, cfg Config, rng *sim.RNG) *Session {
	s := &Session{
		rt:        rt,
		cfg:       cfg,
		rng:       rng,
		peers:     make(map[netem.NodeID]*btPeer),
		numPieces: (cfg.NumBlocks + BlocksPerPiece - 1) / BlocksPerPiece,
		index:     proto.NewIndexTable(cfg.NumBlocks),
	}
	s.Swarm = &s.cfg.Swarm
	s.tracker = &tracker{rng: rng.Stream("tracker")}
	for _, id := range cfg.Members {
		s.peers[id] = newBTPeer(s, id)
	}
	return s
}

// Start announces every peer to the tracker and begins the swarm.
func (s *Session) Start() {
	for _, id := range s.memberOrder() {
		p := s.peers[id]
		s.tracker.announce(p.node.ID)
		p.bootstrap()
	}
}

func (s *Session) memberOrder() []netem.NodeID {
	out := append([]netem.NodeID(nil), s.cfg.Members...)
	slices.Sort(out)
	return out
}

func (s *Session) pieceOf(block int) int { return block / BlocksPerPiece }

func (s *Session) pieceBlocks(piece int) (lo, hi int) {
	lo = piece * BlocksPerPiece
	hi = lo + BlocksPerPiece
	if hi > s.cfg.NumBlocks {
		hi = s.cfg.NumBlocks
	}
	return lo, hi
}

// tracker is the centralized coordination point: it knows every announced
// peer and returns random subsets. Announce traffic is negligible against
// 100 MB payloads, so the tracker is modelled as an oracle rather than a
// network endpoint; its architectural role (random, content-oblivious
// peering) is what the comparison needs.
type tracker struct {
	rng   *sim.RNG
	known []netem.NodeID
	pool  []netem.NodeID // sample's scratch
}

func (t *tracker) announce(id netem.NodeID) {
	for _, k := range t.known {
		if k == id {
			return
		}
	}
	t.known = append(t.known, id)
}

// sample returns up to n random known peers excluding self, valid until
// the next call.
func (t *tracker) sample(self netem.NodeID, n int) []netem.NodeID {
	pool := t.pool[:0]
	for _, k := range t.known {
		if k != self {
			pool = append(pool, k)
		}
	}
	t.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	t.pool = pool
	if len(pool) > n {
		pool = pool[:n]
	}
	return pool
}

// btConn is per-connection state at one endpoint.
type btConn struct {
	id   netem.NodeID
	conn *proto.Conn

	// Remote piece availability.
	remotePieces *proto.Bitmap
	// Choking state: amChoking = we choke them; peerChoking = they choke us.
	amChoking   bool
	peerChoking bool

	outstanding int
	// epochBytes/downRate measure what we downloaded from them (for
	// reciprocation) and upRate what we sent them (seed policy).
	downEpoch float64
	downRate  float64
	upEpoch   float64
	upRate    float64

	closed bool
}

func (bc *btConn) NodeID() netem.NodeID { return bc.id }

// btPeer is one BitTorrent node.
type btPeer struct {
	s    *Session
	node *proto.Node
	rng  *sim.RNG

	blocks *proto.BlockStore // sub-piece granularity
	pieces *proto.Bitmap     // completed pieces (shareable/announced)

	conns proto.IDList[*btConn]

	// pieceAvail[p] counts how many connected peers have piece p
	// (local-rarest-first state).
	pieceAvail []int

	// claims holds, per sub-piece, the peer it is currently asked from
	// (endgame moves a claim to a second peer).
	claims proto.Claims

	// activePieces[i] marks piece i partially downloaded, preferred before
	// starting new pieces (strict priority, as in mainline BT).
	activePieces []bool

	// Scratch reused for the life of the peer: pickBlock's rarest ties,
	// rechoke's ranking and rotateOptimistic's choked set.
	ties   []int
	ranked []*btConn
	choked []*btConn

	optimistic netem.NodeID
	complete   bool
	seed       bool
}

func newBTPeer(s *Session, id netem.NodeID) *btPeer {
	p := &btPeer{
		s:            s,
		node:         s.rt.NewNode(id),
		rng:          s.rng.Stream(fmt.Sprintf("bt-%d", id)),
		blocks:       proto.NewBlockStore(s.cfg.NumBlocks),
		pieces:       proto.NewBitmap(s.numPieces),
		claims:       proto.NewClaims(s.cfg.NumBlocks),
		pieceAvail:   make([]int, s.numPieces),
		activePieces: make([]bool, s.numPieces),
		optimistic:   -1,
	}
	if id == s.cfg.Source {
		for i := 0; i < s.cfg.NumBlocks; i++ {
			p.blocks.Add(i, 0)
		}
		for i := 0; i < s.numPieces; i++ {
			p.pieces.Set(i)
		}
		p.complete = true
		p.seed = true
	}
	p.node.OnMessage = p.onMessage
	p.node.OnAccept = p.onAccept
	p.node.OnClose = p.onConnClose
	return p
}

// Typed timer kinds dispatched through btPeer.OnEvent.
const (
	evRechoke int32 = iota
	evOptimistic
	evReannounce
)

// OnEvent dispatches the peer's periodic typed timers (engine plumbing).
func (p *btPeer) OnEvent(kind int32, _ any) {
	switch kind {
	case evRechoke:
		p.rechoke()
	case evOptimistic:
		p.rotateOptimistic()
	case evReannounce:
		p.reannounce()
	}
}

// bootstrap fetches the initial peer list and schedules periodic work.
func (p *btPeer) bootstrap() {
	p.refreshPeers()
	p.s.rt.AfterEvent(RechokeInterval, p, evRechoke, nil)
	p.s.rt.AfterEvent(OptimisticInterval, p, evOptimistic, nil)
	p.s.rt.AfterEvent(AnnounceInterval, p, evReannounce, nil)
}

func (p *btPeer) reannounce() {
	if p.node.Conns() < PeerSetSize {
		p.refreshPeers()
	}
	p.s.rt.AfterEvent(AnnounceInterval, p, evReannounce, nil)
}

// refreshPeers dials random tracker-provided peers up to PeerSetSize.
func (p *btPeer) refreshPeers() {
	for _, id := range p.s.tracker.sample(p.node.ID, TrackerPeers) {
		if len(p.conns) >= PeerSetSize {
			break
		}
		if p.conns.Has(id) {
			continue
		}
		c := p.node.Dial(id)
		p.attach(c, id)
	}
}

func (p *btPeer) attach(c *proto.Conn, id netem.NodeID) *btConn {
	bc := &btConn{id: id, conn: c, remotePieces: proto.NewBitmap(p.s.numPieces), amChoking: true, peerChoking: true}
	p.conns.Insert(bc)
	c.SetState(p.node, bc)
	c.IsData = func(kind int) bool { return kind == kindPiece }
	c.Send(p.node, proto.Message{
		Kind:    kindHandshake,
		Size:    float64(float64(p.s.numPieces)/8) + 68,
		Payload: handshakeMsg{pieces: p.pieces.Clone()},
	})
	return bc
}

// onAccept registers incoming connections (the dialer's handshake follows).
func (p *btPeer) onAccept(c *proto.Conn) {
	id := c.Peer(p.node).ID
	if p.conns.Has(id) {
		c.Close(p.node) // simultaneous-open tie-break: keep the older conn
		return
	}
	if len(p.conns) >= PeerSetSize+5 { // tolerate a few extra inbound
		c.Close(p.node)
		return
	}
	p.attach(c, id)
}

func (p *btPeer) onConnClose(c *proto.Conn) {
	bc, ok := c.State(p.node).(*btConn)
	if !ok || bc.closed {
		return
	}
	bc.closed = true
	p.conns.Remove(bc.id)
	for i := 0; i < p.s.numPieces; i++ {
		if bc.remotePieces.Get(i) && p.pieceAvail[i] > 0 {
			p.pieceAvail[i]--
		}
	}
	p.claims.Release(bc.id)
}

func (p *btPeer) onMessage(c *proto.Conn, m proto.Message) {
	bc, ok := c.State(p.node).(*btConn)
	if !ok || bc.closed {
		return
	}
	switch m.Kind {
	case kindHandshake:
		hs := m.Payload.(handshakeMsg)
		for i := 0; i < p.s.numPieces; i++ {
			if hs.pieces.Get(i) && !bc.remotePieces.Get(i) {
				bc.remotePieces.Set(i)
				p.pieceAvail[i]++
			}
		}
		p.requestMore(bc)
	case kindHave:
		piece := proto.IndexOf(m.Payload)
		if !bc.remotePieces.Get(piece) {
			bc.remotePieces.Set(piece)
			p.pieceAvail[piece]++
		}
		p.requestMore(bc)
	case kindChoke:
		bc.peerChoking = true
		// Outstanding requests are implicitly cancelled by a choke; free
		// the claims so the blocks can be fetched elsewhere.
		bc.outstanding = 0
		p.claims.Release(bc.id)
	case kindUnchoke:
		bc.peerChoking = false
		p.requestMore(bc)
	case kindRequest:
		p.serve(bc, proto.IndexOf(m.Payload))
	case kindPiece:
		p.onPiece(bc, proto.IndexOf(m.Payload))
	}
}

// serve sends a sub-piece if the requester is unchoked and we have it.
func (p *btPeer) serve(bc *btConn, block int) {
	if bc.amChoking && bc.id != p.optimistic {
		return // choked peers get nothing; they will re-request on unchoke
	}
	if block < 0 || block >= p.s.cfg.NumBlocks || !p.blocks.Have(block) {
		return
	}
	bc.conn.Send(p.node, proto.Message{
		Kind:    kindPiece,
		Size:    p.s.cfg.BlockSize + 13,
		Payload: p.s.index.Ref(block),
	})
}

// onPiece handles an arriving sub-piece.
func (p *btPeer) onPiece(bc *btConn, block int) {
	if bc.outstanding > 0 {
		bc.outstanding--
	}
	p.claims.Unclaim(block)
	now := p.s.rt.Now()
	if !p.s.Arrived(p.node.ID, block, p.blocks, p.blocks.Add(block, now)) {
		p.requestMore(bc)
		return
	}
	piece := p.s.pieceOf(block)
	p.activePieces[piece] = true
	if p.pieceComplete(piece) {
		p.pieces.Set(piece)
		p.activePieces[piece] = false
		// Announce to everyone (HAVE flood, as in the real protocol).
		for _, other := range p.conns {
			other.conn.Send(p.node, proto.Message{Kind: kindHave, Size: 9, Payload: p.s.index.Ref(piece)})
		}
	}
	if !p.complete && p.blocks.Complete() {
		p.complete = true
		p.seed = true
		p.s.Completed(p.node.ID, now)
	}
	p.requestMore(bc)
}

func (p *btPeer) pieceComplete(piece int) bool {
	lo, hi := p.s.pieceBlocks(piece)
	for b := lo; b < hi; b++ {
		if !p.blocks.Have(b) {
			return false
		}
	}
	return true
}

// requestMore fills the peer's outstanding window using strict-priority
// active pieces then local-rarest-first new pieces.
func (p *btPeer) requestMore(bc *btConn) {
	if p.complete || bc.closed || bc.peerChoking {
		return
	}
	for bc.outstanding < MaxOutstanding {
		block, ok := p.pickBlock(bc)
		if !ok {
			break
		}
		p.claims.Claim(block, bc.id)
		bc.outstanding++
		p.s.RequestsSent++
		bc.conn.Send(p.node, proto.Message{Kind: kindRequest, Size: 17, Payload: p.s.index.Ref(block)})
	}
}

// pickBlock chooses the next sub-piece to request from bc.
func (p *btPeer) pickBlock(bc *btConn) (int, bool) {
	endgame := p.inEndgame()
	usable := func(b int) bool {
		if p.blocks.Have(b) {
			return false
		}
		// Endgame mode: re-request in-flight blocks from other peers.
		return !p.claims.Held(b) || endgame && !p.claims.HeldBy(b, bc.id)
	}
	// 1. Finish active pieces the remote has, in piece order.
	for piece, active := range p.activePieces {
		if !active || !bc.remotePieces.Get(piece) {
			continue
		}
		lo, hi := p.s.pieceBlocks(piece)
		for b := lo; b < hi; b++ {
			if usable(b) {
				return b, true
			}
		}
	}
	// 2. Start the rarest new piece the remote has.
	bestPiece, bestAvail := -1, 1<<30
	ties := p.ties[:0]
	for piece := 0; piece < p.s.numPieces; piece++ {
		if p.pieces.Get(piece) || p.activePieces[piece] || !bc.remotePieces.Get(piece) {
			continue
		}
		lo, hi := p.s.pieceBlocks(piece)
		any := false
		for b := lo; b < hi; b++ {
			if usable(b) {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		switch {
		case p.pieceAvail[piece] < bestAvail:
			bestAvail = p.pieceAvail[piece]
			bestPiece = piece
			ties = ties[:0]
			ties = append(ties, piece)
		case p.pieceAvail[piece] == bestAvail:
			ties = append(ties, piece)
		}
	}
	p.ties = ties
	if bestPiece == -1 {
		return 0, false
	}
	if len(ties) > 1 {
		bestPiece = ties[p.rng.Pick(len(ties))]
	}
	lo, hi := p.s.pieceBlocks(bestPiece)
	for b := lo; b < hi; b++ {
		if usable(b) {
			return b, true
		}
	}
	return 0, false
}

// inEndgame reports whether every missing block is already in flight.
func (p *btPeer) inEndgame() bool {
	missing := p.blocks.Missing()
	return missing > 0 && missing <= p.claims.Len()+2
}

// rechoke runs the 10-second tit-for-tat choker.
func (p *btPeer) rechoke() {
	// Refresh rates.
	for _, bc := range p.conns {
		down := bc.conn.DeliveredFrom(bc.conn.Peer(p.node))
		bc.downRate = (down - bc.downEpoch) / RechokeInterval
		bc.downEpoch = down
		up := bc.conn.DeliveredFrom(p.node)
		bc.upRate = (up - bc.upEpoch) / RechokeInterval
		bc.upEpoch = up
	}
	// Rank: leechers reciprocate downloaders; seeds reward fast takers.
	ranked := append(p.ranked[:0], p.conns...)
	p.ranked = ranked
	slices.SortStableFunc(ranked, func(a, b *btConn) int {
		if p.seed {
			return cmp.Compare(b.upRate, a.upRate)
		}
		return cmp.Compare(b.downRate, a.downRate)
	})
	unchoked := 0
	for _, bc := range ranked {
		want := unchoked < UnchokeSlots || bc.id == p.optimistic
		if want {
			unchoked++
		}
		p.setChoke(bc, !want)
	}
	if p.s.rt.Tracer != nil {
		p.s.rt.Trace("rechoke", p.node.ID, -1, fmt.Sprintf("%d unchoked", unchoked))
	}
	p.s.rt.AfterEvent(RechokeInterval, p, evRechoke, nil)
}

func (p *btPeer) setChoke(bc *btConn, choke bool) {
	if bc.amChoking == choke {
		return
	}
	bc.amChoking = choke
	kind := kindUnchoke
	if choke {
		kind = kindChoke
	}
	bc.conn.Send(p.node, proto.Message{Kind: kind, Size: 5})
}

// rotateOptimistic picks a new optimistic unchoke every 30 s, giving choked
// peers a chance to prove themselves (and cold-starting new leechers).
func (p *btPeer) rotateOptimistic() {
	choked := p.choked[:0]
	for _, bc := range p.conns {
		if bc.amChoking {
			choked = append(choked, bc)
		}
	}
	p.choked = choked
	if len(choked) > 0 {
		bc := choked[p.rng.Pick(len(choked))]
		p.optimistic = bc.id
		p.setChoke(bc, false)
	}
	p.s.rt.AfterEvent(OptimisticInterval, p, evOptimistic, nil)
}
