// Package ransub implements the RanSub protocol (Kostić et al., USITS'03)
// as used by Bullet' (paper §3.2.2): an epoch-based collect/distribute pass
// over the control tree that delivers a changing, uniformly random subset
// of system members — with application state attached — to every node,
// every period (5 s in Bullet').
//
// Each epoch the root sends a distribute message down the tree carrying a
// random member sample assembled from the previous epoch's collect phase;
// when the distribute reaches the leaves, a collect phase flows back up, at
// each layer randomizing and compacting per-subtree samples so that what
// arrives at the root is a uniform sample of the whole membership. The
// variant implemented here mixes, for each child, the parent's distribute
// set with samples drawn from the *other* subtrees and the node itself —
// the "non-descendants" flavor Bullet uses so nodes mostly learn about
// peers outside their own subtree.
//
// A candidate set in flight belongs to the agent that sent it and goes back
// to that agent's free list once read: a distribute set as soon as the
// receiver has delivered and forwarded it, a collect sample when the next
// epoch's sample from the same child replaces it (at once if it is stale).
// The set OnDistribute receives is valid only during the call; a caller
// that keeps candidates copies them.
package ransub

import (
	"slices"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

// Message kinds, allocated in the range protocols leave to the control
// plane.
const (
	KindDistribute = proto.ControlKindBase + iota
	KindCollect
)

// DefaultPeriod is the Bullet' epoch length in seconds.
const DefaultPeriod = 5.0

// DefaultFanout is the number of candidates carried per distribute set.
const DefaultFanout = 10

// TreeDegree bounds the control tree's fanout, for Bullet' and Bullet alike.
const TreeDegree = 10

// Candidate is one advertised member: its identity and its application
// state (for Bullet', a block-availability summary).
type Candidate struct {
	ID      netem.NodeID
	Summary *proto.Summary
}

// setMsg is a candidate set in flight, a distribute set or a collect
// sample (subtreeSize is the collect's weight). It comes from its owner's
// free list, with room for DefaultFanout candidates, and release returns it
// there.
type setMsg struct {
	proto.Pooled
	owner       *Agent
	epoch       int
	set         []Candidate
	subtreeSize int
}

// Reset empties the set and keeps its capacity and owner.
func (m *setMsg) Reset() {
	clear(m.set)
	m.set = m.set[:0]
}

// release returns m to its owner's free list. Returning a set twice would
// hand one set to two messages, so it panics.
func (m *setMsg) release() { m.owner.free.Put(m) }

// Agent runs RanSub at one node. The owning protocol routes messages with
// ransub kinds to Handle; Build gives it its tree links, which it alone
// holds.
type Agent struct {
	node   *proto.Node
	rng    *sim.RNG
	period float64

	// Summarize produces this node's current candidate (called each epoch
	// as the collect phase passes through).
	Summarize func() Candidate
	// OnDistribute delivers each epoch's random candidate set. The set is
	// valid only during the call: it returns to its sender afterwards.
	OnDistribute func(epoch int, set []Candidate)

	parent *proto.Conn // nil at the root
	// children are the connections to this node's tree children in
	// ascending child id, the order every loop over them takes; childIDs
	// holds their ids, index for index.
	children []*proto.Conn
	childIDs []netem.NodeID

	epoch int
	// childSamples is each child's last collect sample, indexed like
	// childIDs and held until the next one replaces it; collected counts
	// the children whose sample is of the current epoch.
	childSamples []*setMsg
	collected    int
	pool         []Candidate // root: merged sample from last collect
	started      bool

	free proto.FreeList[setMsg, *setMsg] // sets this agent sends, back from their receivers

	// Scratch for mixFor and mergeCollect, reused across epochs; nothing in it
	// outlives the call that filled it.
	self    [1]Candidate
	local   []Candidate // root: its own epoch's set
	cands   []Candidate
	byID    map[netem.NodeID]Candidate
	order   []netem.NodeID
	sources []collectSource
	seen    map[netem.NodeID]bool
}

// collectSource is one weighted contributor to mergeCollect's sample.
type collectSource struct {
	sample []Candidate
	size   int
}

// New creates an agent for node n. Build gives it its tree links, and
// Start starts the root.
func New(n *proto.Node, rng *sim.RNG, period float64) *Agent {
	if period <= 0 {
		period = DefaultPeriod
	}
	return &Agent{
		node:   n,
		rng:    rng,
		period: period,
		byID:   make(map[netem.NodeID]Candidate),
		seen:   make(map[netem.NodeID]bool),
	}
}

// Build joins members into a random control tree under root and dials it
// into the agents at(id), its one holder. Members join in ascending id, each
// by random descent (from the root, step to a child picked by rng until a
// node has fewer than degree children); a member listed twice panics. Links
// are dialed parent→child, breadth-first, children in ascending id, with
// isData classifying their message kinds.
func Build(members []netem.NodeID, root netem.NodeID, degree int, rng *sim.RNG, isData func(kind int) bool, at func(netem.NodeID) *Agent) {
	ids := slices.Sorted(slices.Values(members))
	for i, id := range ids {
		if id == root {
			continue
		}
		if i > 0 && ids[i-1] == id {
			panic("ransub: a member joins the tree twice")
		}
		cur := at(root)
		for len(cur.childIDs) >= degree {
			cur = at(cur.childIDs[rng.Pick(len(cur.childIDs))])
		}
		cur.childIDs = append(cur.childIDs, id)
	}
	for queue := []netem.NodeID{root}; len(queue) > 0; {
		a := at(queue[0])
		queue = append(queue[1:], a.childIDs...)
		a.children = make([]*proto.Conn, len(a.childIDs))
		a.childSamples = make([]*setMsg, len(a.childIDs))
		for i, cid := range a.childIDs {
			a.children[i] = a.node.Dial(cid)
			a.children[i].IsData = isData
			at(cid).parent = a.children[i]
		}
	}
}

// Children returns the connections to this node's tree children in
// ascending child id, the order a pusher round-robins over. The caller must
// not change the slice.
func (a *Agent) Children() []*proto.Conn { return a.children }

// ChildIDs returns the ids of this node's tree children in ascending order,
// index for index with Children. The caller must not change the slice.
func (a *Agent) ChildIDs() []netem.NodeID { return a.childIDs }

// Start begins periodic epochs; call at the root only.
func (a *Agent) Start() {
	if a.parent != nil || a.started {
		return
	}
	a.started = true
	a.runEpoch()
}

func (a *Agent) runEpoch() {
	a.epoch++
	a.collected = 0
	a.local = a.mixFor(-1, a.pool, nil, a.local[:0])
	if a.OnDistribute != nil {
		a.OnDistribute(a.epoch, a.local)
	}
	if len(a.children) == 0 {
		// Degenerate single-node tree: collect completes immediately.
		a.finishCollect()
	}
	a.forward(a.pool)
	a.node.Runtime().AfterEvent(a.period, a, evEpoch, nil)
}

// evEpoch is the root's epoch timer, the one typed event an agent schedules.
const evEpoch int32 = 0

// OnEvent runs the root's next epoch when its timer fires; engine plumbing,
// not public API.
func (a *Agent) OnEvent(int32, any) { a.runEpoch() }

// getSet takes a set of the current epoch from the free list; a new one
// gets its owner and room for DefaultFanout candidates.
func (a *Agent) getSet() *setMsg {
	m := a.free.Get()
	if m.owner == nil {
		m.owner, m.set = a, make([]Candidate, 0, DefaultFanout)
	}
	m.epoch = a.epoch
	return m
}

// forward sends every child its mix of the epoch's incoming set. The node's
// own candidate is summarized once for all of them: nothing can change it
// between one child's message and the next.
func (a *Agent) forward(incoming []Candidate) {
	if len(a.childIDs) == 0 {
		return
	}
	own := a.own()
	for i, id := range a.childIDs {
		m := a.getSet()
		m.set = a.mixFor(id, incoming, own, m.set)
		a.children[i].Send(a.node, proto.Message{
			Kind:    KindDistribute,
			Size:    candidateWire(len(m.set)),
			Payload: m,
		})
	}
}

// own returns this node's current candidate as a one-element slice in agent
// scratch, or nil when the owner supplied no Summarize.
func (a *Agent) own() []Candidate {
	if a.Summarize == nil {
		return nil
	}
	a.self[0] = a.Summarize()
	return a.self[:]
}

// Handle processes a RanSub message; the owning protocol calls this for
// kinds in the ransub range. It returns true if the kind was recognized.
func (a *Agent) Handle(c *proto.Conn, m proto.Message) bool {
	switch m.Kind {
	case KindDistribute:
		d := m.Payload.(*setMsg)
		a.onDistribute(d)
		d.release()
		return true
	case KindCollect:
		a.onCollect(c.Peer(a.node).ID, m.Payload.(*setMsg))
		return true
	}
	return false
}

func (a *Agent) onDistribute(d *setMsg) {
	a.epoch = d.epoch
	a.collected = 0
	if a.OnDistribute != nil {
		a.OnDistribute(d.epoch, d.set)
	}
	if len(a.children) == 0 {
		a.sendCollect()
		return
	}
	a.forward(d.set)
}

// onCollect keeps a child's sample of the current epoch in place of its
// last one, which goes back to the child; a stale sample goes back at once.
func (a *Agent) onCollect(from netem.NodeID, cm *setMsg) {
	if cm.epoch != a.epoch {
		cm.release()
		return
	}
	i, _ := slices.BinarySearch(a.childIDs, from)
	prev := a.childSamples[i]
	if prev == nil || prev.epoch != a.epoch {
		a.collected++
	}
	if prev != nil {
		prev.release()
	}
	a.childSamples[i] = cm
	if a.collected == len(a.children) {
		if a.parent == nil {
			a.finishCollect()
		} else {
			a.sendCollect()
		}
	}
}

// sendCollect merges child samples with this node's own candidate and
// forwards a compacted uniform sample up the tree.
func (a *Agent) sendCollect() {
	m := a.getSet()
	m.set, m.subtreeSize = a.mergeCollect(m.set)
	a.parent.Send(a.node, proto.Message{
		Kind:    KindCollect,
		Size:    candidateWire(len(m.set)),
		Payload: m,
	})
}

// finishCollect (root) installs the merged sample as the next epoch's pool.
func (a *Agent) finishCollect() {
	a.pool, _ = a.mergeCollect(a.pool[:0])
}

// mergeCollect draws a weighted uniform sample over this node's subtree
// into out: each child of the current epoch contributes proportionally to
// its subtree size, plus self.
func (a *Agent) mergeCollect(out []Candidate) ([]Candidate, int) {
	sources := a.sources[:0]
	total := 1 // self
	if own := a.own(); own != nil {
		sources = append(sources, collectSource{sample: own, size: 1})
	}
	for _, cm := range a.childSamples {
		if cm == nil || cm.epoch != a.epoch || len(cm.set) == 0 {
			continue
		}
		sources = append(sources, collectSource{sample: cm.set, size: cm.subtreeSize})
		total += cm.subtreeSize
	}
	a.sources = sources
	seen := a.seen
	clear(seen)
	// Weighted draws with rejection of duplicates; bounded attempts keep it
	// cheap while approximating a uniform subtree sample.
	attempts := DefaultFanout * 4
	for len(out) < DefaultFanout && attempts > 0 && len(sources) > 0 {
		attempts--
		r := a.rng.Intn(total)
		var chosen *collectSource
		for i := range sources {
			if r < sources[i].size {
				chosen = &sources[i]
				break
			}
			r -= sources[i].size
		}
		if chosen == nil || len(chosen.sample) == 0 {
			continue
		}
		c := chosen.sample[a.rng.Pick(len(chosen.sample))]
		if seen[c.ID] {
			continue
		}
		seen[c.ID] = true
		out = append(out, c)
	}
	return out, total
}

// mixFor appends to out the distribute set for one child (or for local
// delivery when child == -1): the incoming set blended with samples from
// other subtrees and own (this node's candidate; nil for local delivery),
// excluding the child itself, compacted to DefaultFanout.
func (a *Agent) mixFor(child netem.NodeID, incoming, own, out []Candidate) []Candidate {
	cands := append(a.cands[:0], incoming...)
	for i, id := range a.childIDs {
		if id == child {
			continue // non-descendants flavor
		}
		if cm := a.childSamples[i]; cm != nil {
			cands = append(cands, cm.set...)
		}
	}
	cands = append(cands, own...)
	a.cands = cands
	// De-duplicate by id keeping the freshest entry (later wins: the
	// node's own just-built summary overrides stale pool copies). The
	// receiving child is never advertised to itself; this node's own
	// candidacy is excluded only from its local delivery (child == -1) —
	// forwarded sets must keep it, or a node could never be discovered by
	// its own subtree (in particular, the source by its tree children).
	byID, order := a.byID, a.order[:0]
	clear(byID)
	for _, c := range cands {
		if c.ID == child {
			continue
		}
		if child == -1 && c.ID == a.node.ID {
			continue
		}
		if _, ok := byID[c.ID]; !ok {
			order = append(order, c.ID)
		}
		byID[c.ID] = c
	}
	a.order = order
	// Uniformly subsample to DefaultFanout.
	a.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if len(order) > DefaultFanout {
		order = order[:DefaultFanout]
	}
	for _, id := range order {
		out = append(out, byID[id])
	}
	return out
}

// candidateWire returns the wire size of a message carrying n candidates.
func candidateWire(n int) float64 {
	per := 8.0 + (&proto.Summary{}).WireSize()
	return float64(float64(n)*per) + 16
}
