package core

import (
	"fmt"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/ransub"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// Message kinds used by Bullet', exported so that traffic counts
// (proto.Runtime.Traffic) can be read by kind. RanSub kinds (from
// proto.ControlKindBase up) pass through to the embedded agents.
const (
	KindHello   = iota + 1 // receiver→sender: establish a peering link
	KindReject             // sender→receiver: at capacity, go away
	KindDiff               // sender→receiver: availability diff
	KindDiffReq            // receiver→sender: send me a diff now
	KindRequest            // receiver→sender: request one block
	KindBlock              // sender→receiver: a pulled block
	KindPush               // source→tree child: a pushed block
)

// The three per-block payloads travel as pointers drawn from the session's
// free lists (proto.FreeList): whoever sends one gets it from the list, and
// peer.onMessage puts it back when the handler it was delivered to returns.

type diffMsg struct {
	proto.Pooled
	// ids aliases the sender's append-only arrival log (capacity clipped to
	// length), so a diff costs no copy; receivers only read it.
	ids     []int
	initial bool
}

type reqMsg struct {
	proto.Pooled
	id int
	// totalInBW is the receiver's total incoming bandwidth, piggybacked for
	// the sender's ManageReceivers ratio rule (§3.3.1).
	totalInBW float64
	// perSenderBW is the receiver's measured bandwidth from this sender,
	// used by the sender to convert queue depth into service time.
	perSenderBW float64
}

type blockMsg struct {
	proto.Pooled
	id int
	// inFront and wasted are the sender-side measurements reported with
	// every block (§3.3.3): queued blocks ahead of this one, and idle
	// (negative) or queue-service (positive) time.
	inFront int
	wasted  float64
}

// A payload is zeroed whole when it returns to its list, which also drops a
// diff's reference into the sender's arrival log.
func (m *diffMsg) Reset()  { *m = diffMsg{} }
func (m *reqMsg) Reset()   { *m = reqMsg{} }
func (m *blockMsg) Reset() { *m = blockMsg{} }

// Session is one Bullet' dissemination run over an existing proto.Runtime.
type Session struct {
	*proto.Swarm // cfg.Swarm, with its accounting: Complete, DoneAt, Duplicates

	rt  *proto.Runtime
	cfg Config
	rng *sim.RNG

	peers map[netem.NodeID]*peer

	diffs  proto.FreeList[diffMsg, *diffMsg]
	reqs   proto.FreeList[reqMsg, *reqMsg]
	blocks proto.FreeList[blockMsg, *blockMsg]

	// spares is the per-block memory of dropped senders, cleared, for the
	// next addSender anywhere in the session to take before it allocates.
	spares []senderSpare
	// fresh is onDiff's scratch: the ids one diff adds to a sender's
	// availability list, collected so that the list grows at most once.
	fresh []int32

	// Stats aggregated across all nodes.
	RequestsSent int
	DiffsSent    int
	BlocksPulled int
	BlocksPushed int
	Rejects      int
}

// NewSession builds the nodes and RanSub agents for one run.
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
	for _, id := range cfg.Members {
		s.peers[id] = newPeer(s, id)
	}
	return s
}

// Start builds the control tree and begins pushing and epoch processing.
func (s *Session) Start() {
	ransub.Build(s.cfg.Members, s.cfg.Source, ransub.TreeDegree, s.rng.Stream("tree"), isDataKind, s.Agent)
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

// Agent returns the RanSub agent of one member, which holds its control-tree
// links from Start on (for tests and harness).
func (s *Session) Agent(id netem.NodeID) *ransub.Agent { return s.peers[id].rs }

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

func isDataKind(kind int) bool { return kind == KindBlock || kind == KindPush }

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

// A sender's rate meter has meterSlots buckets of meterBucket seconds, each
// meterSlotBytes bytes (a float64 and an int64).
const (
	meterBucket    = 0.5
	meterSlots     = 24
	meterSlotBytes = 16
)

// senderSpare is the per-block memory a dropped sender gives back: its
// availability array emptied, its advertised bitmap and its meter cleared.
type senderSpare struct {
	avail      []int32
	advertised proto.Bitmap
	meter      trace.RateMeter
}

// takeSpare hands out the memory putSpare took back most recently, or new
// memory when none is spare. Either way it reads as freshly made.
func (s *Session) takeSpare() senderSpare {
	n := len(s.spares)
	if n == 0 {
		return senderSpare{
			advertised: *proto.NewBitmap(s.maxBlockID()),
			meter:      *trace.NewRateMeter(meterBucket, meterSlots),
		}
	}
	sp := s.spares[n-1]
	s.spares[n-1] = senderSpare{}
	s.spares = s.spares[:n-1]
	return sp
}

// putSpare takes a dropped sender's per-block memory back, cleared, and
// leaves the sender holding none of it. Every reader of the three fields
// returns on sp.closed first; one that did not would panic on the zero
// bitmap or meter rather than read memory another sender has taken over.
func (s *Session) putSpare(sp *senderPeer) {
	sp.advertised.Reset()
	sp.meter.Reset()
	s.spares = append(s.spares, senderSpare{avail: sp.avail[:0], advertised: sp.advertised, meter: sp.meter})
	sp.avail, sp.advertised, sp.meter = nil, proto.Bitmap{}, trace.RateMeter{}
}

// senderBytes is the per-block memory Bullet' senders hold, counted from
// len and cap: four bytes per availability slot, eight per bitmap word and
// meterSlotBytes per meter slot, for the live senders of every peer and for
// the session's spares.
func (s *Session) senderBytes() (live, spare int) {
	size := func(avail []int32, advertised *proto.Bitmap) int {
		return cap(avail)*4 + int(advertised.WireSize()) + meterSlots*meterSlotBytes
	}
	for _, p := range s.peers {
		for _, sp := range p.senders {
			live += size(sp.avail, &sp.advertised)
		}
	}
	for i := range s.spares {
		spare += size(s.spares[i].avail, &s.spares[i].advertised)
	}
	return live, spare
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
	advertised proto.Bitmap
	// meter measures arrival bandwidth from this sender for the
	// flow-control formula ("bandwidth measured at the receiver", §3.3.3).
	meter trace.RateMeter
	// All three come from the session's spares and go back to them when
	// the sender is dropped, which leaves a closed sender holding none:
	// nil avail, a zero bitmap and a zero meter.

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

func (sp *senderPeer) NodeID() netem.NodeID   { return sp.id }
func (rp *receiverPeer) NodeID() netem.NodeID { return rp.id }

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
	// held is set while we hold the receiver's diff request: it asked when
	// we had nothing past its cursor, and our next arrival answers it.
	held bool

	// totalInBW and perSenderBW are the receiver's piggybacked reports.
	totalInBW   float64
	perSenderBW float64

	epochBytes float64
	rate       float64

	closed bool
}
