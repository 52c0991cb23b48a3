// Package splitstream implements the SplitStream baseline (the paper's
// "MACEDON SplitStream MS" variant): the file is striped across k
// interior-node-disjoint multicast trees and each stripe is pushed down its
// tree over reliable connections. No mesh recovery exists; a node's
// bandwidth for stripe i is bounded by the slowest overlay hop above it in
// tree i — the monotonic tree-bandwidth limitation the paper's introduction
// describes, which is exactly why its completion-time tail stretches under
// loss and bandwidth dynamics.
package splitstream

import (
	"slices"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

// DefaultStripes is the stripe count (SplitStream's k, 16 in the paper's
// Pastry-based deployment).
const DefaultStripes = 16

// pushQueueDepth bounds per-child queued blocks at interior nodes so a slow
// subtree exerts backpressure instead of buffering the whole stripe.
const pushQueueDepth = 4

// pumpInterval is the source/interior push pump period in seconds.
const pumpInterval = 0.05

// kindBlock is a stripe data block. Its payload names the block id as a
// pointer into the session's immutable index table (Session.ref), so
// sending one allocates nothing; the stripe is stripeOf(id).
const kindBlock = 1

// Config parameterizes a SplitStream session.
type Config struct {
	// Swarm is the cohort, the file and the progress callbacks.
	proto.Swarm

	// Stripes is the stripe count k; 0 means DefaultStripes.
	Stripes int

	// MaxSkew bounds how many blocks ahead of the slowest sibling a child
	// may be served within one stripe, modelling the finite per-child
	// application buffering of the MACEDON MS push implementation: with
	// reliable (TCP) push and bounded buffers, a slow child eventually
	// stalls its siblings' stripe. 0 means the paper-faithful default
	// (DefaultMaxSkew); negative means unbounded (an idealized
	// SplitStream with infinite forwarding buffers).
	MaxSkew int
}

// DefaultMaxSkew is the default per-stripe inter-sibling skew bound in
// blocks (128 KB of buffering per stripe at 16 KB blocks).
const DefaultMaxSkew = 8

// Session is one SplitStream dissemination run.
type Session struct {
	// Stripe trees deliver each block along exactly one path, so Duplicates
	// stays zero unless tree repair ever introduces overlap.
	*proto.Swarm // cfg.Swarm, with its accounting: Complete, DoneAt, Duplicates

	rt  *proto.Runtime
	cfg Config
	rng *sim.RNG

	peers map[netem.NodeID]*ssPeer
	trees []*stripeTree

	// index[i] == i for every block id: block payloads point into it, and
	// nothing writes it after NewSession.
	index []int32

	// BlocksForwarded counts interior-node forwards (stats).
	BlocksForwarded int
}

// stripeTree is one stripe's dissemination tree: parent/children maps with
// interior nodes drawn only from the stripe's assigned interior group.
type stripeTree struct {
	stripe   int
	parent   map[netem.NodeID]netem.NodeID
	children map[netem.NodeID][]netem.NodeID
}

// NewSession builds the k stripe trees and registers nodes.
func NewSession(rt *proto.Runtime, cfg Config, rng *sim.RNG) *Session {
	if cfg.Stripes <= 0 {
		cfg.Stripes = DefaultStripes
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 16 * 1024
	}
	if cfg.MaxSkew == 0 {
		cfg.MaxSkew = DefaultMaxSkew
	}
	s := &Session{
		rt:    rt,
		cfg:   cfg,
		rng:   rng,
		peers: make(map[netem.NodeID]*ssPeer),
		index: make([]int32, cfg.NumBlocks),
	}
	for i := range s.index {
		s.index[i] = int32(i)
	}
	s.Swarm = &s.cfg.Swarm
	s.buildTrees()
	for _, id := range cfg.Members {
		s.peers[id] = newSSPeer(s, id)
	}
	return s
}

// buildTrees constructs k interior-node-disjoint trees: non-source members
// are partitioned round-robin into k interior groups; tree i uses group i
// members as its interior (in randomized order under the source) and every
// other member as a leaf, balancing leaves across interior nodes.
func (s *Session) buildTrees() {
	members := append([]netem.NodeID(nil), s.cfg.Members...)
	slices.Sort(members)
	var nonSource []netem.NodeID
	for _, id := range members {
		if id != s.cfg.Source {
			nonSource = append(nonSource, id)
		}
	}
	k := s.cfg.Stripes
	rng := s.rng.Stream("trees")

	for stripe := 0; stripe < k; stripe++ {
		t := &stripeTree{
			stripe:   stripe,
			parent:   make(map[netem.NodeID]netem.NodeID),
			children: make(map[netem.NodeID][]netem.NodeID),
		}
		var interior, leaves []netem.NodeID
		stolen := netem.NodeID(-1)
		if len(nonSource) < k {
			// Fewer members than stripes: this stripe's interior group is
			// empty, so promote one member (and keep it out of the leaves).
			stolen = nonSource[stripe%len(nonSource)]
		}
		for i, id := range nonSource {
			switch {
			case id == stolen:
				interior = append(interior, id)
			case stolen == -1 && i%k == stripe:
				interior = append(interior, id)
			default:
				leaves = append(leaves, id)
			}
		}
		rng.Shuffle(len(interior), func(i, j int) { interior[i], interior[j] = interior[j], interior[i] })
		rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })

		// The source sends each stripe exactly once (to the stripe tree's
		// root interior node). Interiors form a binary spine below the
		// root — Scribe trees over Pastry at this membership are several
		// hops deep, and each extra overlay hop is another lossy-link
		// draw on the stripe's only delivery path.
		const srcFanout = 1
		const intFanout = 2
		t.parent[s.cfg.Source] = s.cfg.Source
		attach := func(child, parent netem.NodeID) {
			t.parent[child] = parent
			t.children[parent] = append(t.children[parent], child)
		}
		for i, id := range interior {
			if i < srcFanout {
				attach(id, s.cfg.Source)
			} else {
				attach(id, interior[(i-srcFanout)/intFanout])
			}
		}
		// Distribute leaves across interior nodes evenly.
		for i, id := range leaves {
			attach(id, interior[i%len(interior)])
		}
		s.trees = append(s.trees, t)
	}
}

// Start dials every tree edge and begins the stripe pushes at the source.
func (s *Session) Start() {
	for _, t := range s.trees {
		// Dial edges parent→child in BFS order from the source.
		queue := []netem.NodeID{s.cfg.Source}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			p := s.peers[id]
			kids := append([]netem.NodeID(nil), t.children[id]...)
			slices.Sort(kids)
			for _, cid := range kids {
				c := p.node.Dial(cid)
				c.IsData = func(kind int) bool { return kind == kindBlock }
				p.out[t.stripe] = append(p.out[t.stripe], &childLink{conn: c})
				queue = append(queue, cid)
			}
		}
	}
	s.peers[s.cfg.Source].startSource()
}

// stripeOf maps a block to its stripe (blocks striped round-robin).
func (s *Session) stripeOf(block int) int { return block % s.cfg.Stripes }

// ref is the payload naming block id.
func (s *Session) ref(id int) *int32 { return &s.index[id] }

// childLink is one downstream edge in one stripe tree, with an independent
// cursor into the stripe's forward log so a slow child never head-of-line
// blocks its siblings.
type childLink struct {
	conn   *proto.Conn
	cursor int
}

// ssPeer is one SplitStream node.
type ssPeer struct {
	s     *Session
	node  *proto.Node
	store *proto.BlockStore

	// out[stripe] lists child links in stripe's tree.
	out map[int][]*childLink
	// fwdLog[stripe] is the append-only sequence of stripe blocks this
	// node must forward (prefilled at the source).
	fwdLog map[int][]int

	complete bool
	pumping  bool
}

func newSSPeer(s *Session, id netem.NodeID) *ssPeer {
	p := &ssPeer{
		s:      s,
		node:   s.rt.NewNode(id),
		store:  proto.NewBlockStore(s.cfg.NumBlocks),
		out:    make(map[int][]*childLink),
		fwdLog: make(map[int][]int),
	}
	if id == s.cfg.Source {
		for i := 0; i < s.cfg.NumBlocks; i++ {
			p.store.Add(i, 0)
			st := s.stripeOf(i)
			p.fwdLog[st] = append(p.fwdLog[st], i)
		}
		p.complete = true
	}
	p.node.OnMessage = p.onMessage
	return p
}

func (p *ssPeer) onMessage(c *proto.Conn, m proto.Message) {
	if m.Kind != kindBlock {
		return
	}
	id := int(*m.Payload.(*int32))
	now := p.s.rt.Now()
	if p.s.Arrived(p.node.ID, id, p.store, p.store.Add(id, now)) && !p.complete && p.store.Complete() {
		p.complete = true
		p.s.Completed(p.node.ID, now)
	}
	// Forward down this stripe's tree if we are interior in it.
	if st := p.s.stripeOf(id); len(p.out[st]) > 0 {
		p.fwdLog[st] = append(p.fwdLog[st], id)
		p.pump()
	}
}

// startSource begins pushing all stripes.
func (p *ssPeer) startSource() {
	p.pump()
}

// pump advances every child link's cursor through its stripe log,
// respecting per-child backpressure and the bounded inter-sibling skew,
// and reschedules itself while work remains.
func (p *ssPeer) pump() {
	if p.pumping {
		return
	}
	for st := 0; st < p.s.cfg.Stripes; st++ {
		log := p.fwdLog[st]
		links := p.out[st]
		limit := len(log)
		if skew := p.s.cfg.MaxSkew; skew > 0 && len(links) > 1 {
			// The slowest live sibling's cursor bounds how far ahead the
			// others may run (finite per-child forward buffers).
			min := 1 << 30
			for _, link := range links {
				if !link.conn.Closed() && link.cursor < min {
					min = link.cursor
				}
			}
			if min+skew < limit {
				limit = min + skew
			}
		}
		for _, link := range links {
			if link.conn.Closed() {
				continue
			}
			for link.cursor < limit && link.conn.QueueLen(p.node) < pushQueueDepth {
				id := log[link.cursor]
				link.cursor++
				link.conn.Send(p.node, proto.Message{
					Kind:    kindBlock,
					Size:    p.s.cfg.BlockSize + 12,
					Payload: p.s.ref(id),
				})
				if p.node.ID != p.s.cfg.Source {
					p.s.BlocksForwarded++
				}
			}
		}
	}
	if p.moreToSend() {
		p.pumping = true
		p.s.rt.AfterEvent(pumpInterval, p, evPump, nil)
	}
}

// evPump is the peer's only typed timer kind.
const evPump int32 = 0

// OnEvent dispatches the peer's periodic typed timer (engine plumbing).
func (p *ssPeer) OnEvent(kind int32, _ any) {
	p.pumping = false
	p.pump()
}

func (p *ssPeer) moreToSend() bool {
	for st, links := range p.out {
		log := p.fwdLog[st]
		for _, link := range links {
			if !link.conn.Closed() && link.cursor < len(log) {
				return true
			}
		}
	}
	return false
}
