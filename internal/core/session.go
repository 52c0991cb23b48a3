package core

import (
	"fmt"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/ransub"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
	"bulletprime/internal/tree"
)

// Message kinds used by Bullet'. RanSub kinds (>= 1000) pass through to the
// embedded agents.
const (
	kindHello   = iota + 1 // receiver→sender: establish a peering link
	kindReject             // sender→receiver: at capacity, go away
	kindDiff               // sender→receiver: availability diff
	kindDiffReq            // receiver→sender: send me a diff now
	kindRequest            // receiver→sender: request one block
	kindBlock              // sender→receiver: a pulled block
	kindPush               // source→tree child: a pushed block
)

// The three per-block payloads travel as pointers drawn from the session's
// free lists (see freeList): whoever sends one gets it from the list, and
// peer.onMessage puts it back when the handler it was delivered to returns.

type diffMsg struct {
	// ids aliases the sender's append-only arrival log (capacity clipped to
	// length), so a diff costs no copy; receivers only read it.
	ids     []int
	initial bool
	live    bool
}

type reqMsg struct {
	live bool
	id   int
	// totalInBW is the receiver's total incoming bandwidth, piggybacked for
	// the sender's ManageReceivers ratio rule (§3.3.1).
	totalInBW float64
	// perSenderBW is the receiver's measured bandwidth from this sender,
	// used by the sender to convert queue depth into service time.
	perSenderBW float64
}

type blockMsg struct {
	live bool
	id   int
	// inFront and wasted are the sender-side measurements reported with
	// every block (§3.3.3): queued blocks ahead of this one, and idle
	// (negative) or queue-service (positive) time.
	inFront int
	wasted  float64
}

func (m *diffMsg) inFlight() *bool  { return &m.live }
func (m *reqMsg) inFlight() *bool   { return &m.live }
func (m *blockMsg) inFlight() *bool { return &m.live }

// freeList recycles one payload type for the life of a session, so the
// request → block → diff loop boxes no fresh object per message. A payload
// is live from get until put. One that is never delivered — queued on a
// connection that closed, addressed to a failed node, lost with a testbed
// link — is simply never put back and falls to the collector; it cannot be
// handed out again, so a dropped message never corrupts a later one.
type freeList[T any, P interface {
	*T
	inFlight() *bool
}] struct {
	free []P
}

// get hands out a zeroed payload marked live.
func (f *freeList[T, P]) get() P {
	var m P
	if n := len(f.free); n > 0 {
		m = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		m = new(T)
	}
	*m.inFlight() = true
	return m
}

// put takes a delivered payload back. Returning one that is not live would
// let two in-flight messages share it, so that panics.
func (f *freeList[T, P]) put(m P) {
	if !*m.inFlight() {
		panic("core: payload returned to its free list twice")
	}
	var zero T
	*m = zero // also drops a diff's reference into the sender's arrival log
	f.free = append(f.free, m)
}

// Session is one Bullet' dissemination run over an existing proto.Runtime.
type Session struct {
	*proto.Swarm // cfg.Swarm, with its accounting: Complete, DoneAt, Duplicates

	rt  *proto.Runtime
	cfg Config
	rng *sim.RNG

	Tree  *tree.Tree
	peers map[netem.NodeID]*peer

	diffs  freeList[diffMsg, *diffMsg]
	reqs   freeList[reqMsg, *reqMsg]
	blocks freeList[blockMsg, *blockMsg]

	// Stats aggregated across all nodes.
	RequestsSent int
	DiffsSent    int
	BlocksPulled int
	BlocksPushed int
	Rejects      int
}

// NewSession builds the control tree, nodes, and RanSub agents for one run.
// Call Start to begin dissemination. All members must already exist in the
// runtime's topology; the session registers proto nodes for them.
func NewSession(rt *proto.Runtime, cfg Config, rng *sim.RNG) *Session {
	cfg, err := cfg.withDefaults()
	if err != nil {
		panic(err)
	}
	if cfg.NumBlocks <= 0 {
		panic("core: NumBlocks must be positive")
	}
	if len(cfg.Members) < 2 {
		panic("core: need at least a source and one receiver")
	}
	if cfg.StreamBps > 0 && cfg.Encoded {
		panic("core: StreamBps and Encoded both redefine the source emission; pick one")
	}
	s := &Session{
		rt:    rt,
		cfg:   cfg,
		rng:   rng,
		peers: make(map[netem.NodeID]*peer),
	}
	s.Swarm = &s.cfg.Swarm
	s.Tree = tree.Build(cfg.Members, cfg.Source, cfg.TreeDegree, rng.Stream("tree"))
	for _, id := range cfg.Members {
		s.peers[id] = newPeer(s, id)
	}
	return s
}

// Start wires the control tree and begins pushing and epoch processing.
func (s *Session) Start() {
	ransub.WireTree(s.Tree, false, isDataKind,
		func(id netem.NodeID) *ransub.Agent { return s.peers[id].rs },
		func(id netem.NodeID, children []*proto.Conn) {
			if id == s.cfg.Source {
				s.peers[id].pushChildren = children
			}
		})
	s.peers[s.cfg.Source].rs.Start()
	s.peers[s.cfg.Source].startPushing()
}

// Peer returns the session state for one member (for tests and harness).
func (s *Session) Peer(id netem.NodeID) *PeerInfo {
	p := s.peers[id]
	if p == nil {
		return nil
	}
	return &PeerInfo{
		Blocks:         p.store.Count(),
		Complete:       p.complete,
		Senders:        len(p.senders),
		Receivers:      len(p.receivers),
		MaxSenders:     p.maxSenders.n,
		MaxReceivers:   p.maxReceivers.n,
		CompletedAt:    p.completedAt,
		ArrivalTimes:   p.store.ArrivalTimes(),
		DuplicateCount: p.duplicates,
	}
}

// PeerInfo is a read-only snapshot of one node's progress.
type PeerInfo struct {
	Blocks         int
	Complete       bool
	Senders        int
	Receivers      int
	MaxSenders     int
	MaxReceivers   int
	CompletedAt    sim.Time
	ArrivalTimes   []sim.Time
	DuplicateCount int
}

func isDataKind(kind int) bool { return kind == kindBlock || kind == kindPush }

// maxBlockID returns the store capacity needed: the exact file size when
// unencoded, or the goal plus slack for the encoded stream.
func (s *Session) maxBlockID() int {
	if !s.cfg.Encoded {
		return s.cfg.NumBlocks
	}
	return s.cfg.goalBlocks() + s.cfg.NumBlocks/4 + 64
}

func (s *Session) String() string {
	return fmt.Sprintf("bullet'(%d nodes, %d blocks x %.0fB, %v)",
		len(s.cfg.Members), s.cfg.NumBlocks, s.cfg.BlockSize, s.cfg.Strategy)
}

// senderPeer is the receiver-side state for one mesh sender (a node we
// pull blocks from).
type senderPeer struct {
	id   netem.NodeID
	conn *proto.Conn

	// avail holds block ids advertised by this sender that we do not yet
	// hold; order is arrival order (FirstEncountered consumes from the
	// head, other strategies swap-remove). Four bytes an entry: the list is
	// re-scanned on every pick.
	avail []int32
	// advertised has a bit for every id this sender ever advertised (for
	// rarity bookkeeping on disconnect): maxBlockID()/8 bytes per sender.
	advertised *proto.Bitmap
	// meter measures arrival bandwidth from this sender for the
	// flow-control formula ("bandwidth measured at the receiver", §3.3.3).
	meter *trace.RateMeter

	outstanding int
	// desired is the ManageOutstanding controller state (float; ceiling
	// applied on increases per §3.3.3).
	desired float64
	// markPending freezes controller adjustments until the marked request
	// arrives.
	markPending bool
	markBlock   int

	// diffReqPending limits explicit diff requests to one in flight.
	diffReqPending bool

	// epochBytes tracks DeliveredFrom at the last epoch for rate
	// calculation; rate is the result.
	epochBytes float64
	rate       float64

	// lastArrival is the time a block last arrived (staleness detection).
	lastArrival sim.Time
	// addedAt is when the peering was established; senders younger than
	// one epoch are exempt from trimming.
	addedAt sim.Time
	// lastUseful is the last time this sender advertised something new;
	// exhausted senders are replaced when fresher candidates exist.
	lastUseful sim.Time

	closed bool
}

func (sp *senderPeer) nodeID() netem.NodeID   { return sp.id }
func (rp *receiverPeer) nodeID() netem.NodeID { return rp.id }

func (sp *senderPeer) limit() int {
	l := int(sp.desired + 1e-9)
	if l < 1 {
		l = 1
	}
	return l
}

// receiverPeer is the sender-side state for one mesh receiver (a node that
// pulls blocks from us).
type receiverPeer struct {
	id   netem.NodeID
	conn *proto.Conn

	// diffCursor indexes our arrival log: everything before it has been
	// advertised to this receiver (each block advertised exactly once).
	diffCursor int

	// totalInBW and perSenderBW are the receiver's piggybacked reports.
	totalInBW   float64
	perSenderBW float64

	epochBytes float64
	rate       float64

	closed bool
}
