package ransub

import (
	"slices"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

// rig builds n nodes in a fast uniform network, a RanSub agent per node,
// and a random control tree rooted at node 0 and started, recording a copy of every distribute
// delivery (a delivered set is valid only during OnDistribute).
type rig struct {
	eng      *sim.Engine
	rt       *proto.Runtime
	root     netem.NodeID
	agents   map[netem.NodeID]*Agent
	received map[netem.NodeID][][]Candidate
}

func newRig(t *testing.T, n int, period float64) *rig {
	t.Helper()
	eng := sim.NewEngine()
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(100), netem.Mbps(100), netem.MS(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(100))
				topo.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(5))
			}
		}
	}
	net := netem.New(eng, topo, sim.NewRNG(7).Stream("net"))
	rt := proto.NewRuntime(eng, net)
	master := sim.NewRNG(7)

	r := &rig{
		eng:      eng,
		rt:       rt,
		agents:   make(map[netem.NodeID]*Agent),
		received: make(map[netem.NodeID][][]Candidate),
	}
	var ids []netem.NodeID
	for i := 0; i < n; i++ {
		ids = append(ids, netem.NodeID(i))
	}

	stores := make(map[netem.NodeID]*proto.BlockStore)
	for _, id := range ids {
		node := rt.NewNode(id)
		id := id
		stores[id] = proto.NewBlockStore(100)
		// Give each node a distinct availability set so summaries differ.
		stores[id].Add(int(id)%100, 0)
		ag := New(node, master.Stream("rs"), period)
		ag.Summarize = func() Candidate {
			return Candidate{ID: id, Summary: proto.NewSummary(stores[id])}
		}
		ag.OnDistribute = func(epoch int, set []Candidate) {
			r.received[id] = append(r.received[id], slices.Clone(set))
		}
		r.agents[id] = ag
		node.OnMessage = func(c *proto.Conn, m proto.Message) {
			ag.Handle(c, m)
		}
	}
	Build(ids, r.root, 4, master.Stream("tree"), nil, func(id netem.NodeID) *Agent { return r.agents[id] })
	r.agents[r.root].Start()
	return r
}

func TestEpochsReachAllNodes(t *testing.T) {
	r := newRig(t, 25, 1.0)
	r.eng.RunUntil(10.5)
	for id, sets := range r.received {
		if len(sets) < 8 {
			t.Fatalf("node %d received %d distribute sets in 10 epochs, want >= 8", id, len(sets))
		}
	}
	if len(r.received) != 25 {
		t.Fatalf("only %d nodes ever received a distribute", len(r.received))
	}
}

func TestNoSelfOrEmptyAfterWarmup(t *testing.T) {
	r := newRig(t, 20, 1.0)
	r.eng.RunUntil(12)
	for id, sets := range r.received {
		// Skip the first few epochs: samples need one collect round to fill.
		for ei, set := range sets {
			if ei < 3 {
				continue
			}
			if len(set) == 0 {
				t.Fatalf("node %d epoch %d: empty candidate set after warmup", id, ei)
			}
			seen := map[netem.NodeID]bool{}
			for _, c := range set {
				if c.ID == id {
					t.Fatalf("node %d advertised to itself", id)
				}
				if seen[c.ID] {
					t.Fatalf("duplicate candidate %d in one set", c.ID)
				}
				seen[c.ID] = true
				if c.Summary == nil {
					t.Fatalf("candidate %d missing summary", c.ID)
				}
			}
			if len(set) > DefaultFanout {
				t.Fatalf("set size %d exceeds fanout %d", len(set), DefaultFanout)
			}
		}
	}
}

func TestCandidateCoverage(t *testing.T) {
	// Over many epochs, every node should appear in someone's distribute
	// sets: the samples must span the whole membership, not a fixed corner.
	r := newRig(t, 30, 0.5)
	r.eng.RunUntil(30)
	appeared := map[netem.NodeID]bool{}
	for _, sets := range r.received {
		for _, set := range sets {
			for _, c := range set {
				appeared[c.ID] = true
			}
		}
	}
	missing := 0
	for i := 0; i < 30; i++ {
		if !appeared[netem.NodeID(i)] {
			missing++
		}
	}
	if missing > 1 { // the root itself may legitimately appear rarely early on
		t.Fatalf("%d nodes never appeared in any candidate set", missing)
	}
}

func TestChangingSubsets(t *testing.T) {
	// Consecutive epochs should deliver *changing* subsets (the paper's
	// "changing, uniformly random subsets"), not a frozen list.
	r := newRig(t, 30, 0.5)
	r.eng.RunUntil(30)
	for id, sets := range r.received {
		if len(sets) < 10 {
			continue
		}
		changes := 0
		for i := 5; i < len(sets)-1; i++ {
			a := map[netem.NodeID]bool{}
			for _, c := range sets[i] {
				a[c.ID] = true
			}
			diff := false
			if len(sets[i]) != len(sets[i+1]) {
				diff = true
			}
			for _, c := range sets[i+1] {
				if !a[c.ID] {
					diff = true
				}
			}
			if diff {
				changes++
			}
		}
		if changes == 0 {
			t.Fatalf("node %d saw identical candidate sets across all epochs", id)
		}
	}
}

func TestStaleCollectIgnored(t *testing.T) {
	r := newRig(t, 5, 1.0)
	r.eng.RunUntil(3)
	ag := r.agents[r.root]
	before := len(ag.pool)
	// Inject a stale-epoch collect; it must not corrupt state, and its set
	// goes straight back to the agent that sent it.
	child := r.agents[1]
	stale := child.getSet()
	stale.epoch = -5
	stale.set = append(stale.set, Candidate{ID: 1})
	stale.subtreeSize = 1
	ag.onCollect(1, stale)
	if len(ag.pool) != before {
		t.Fatal("stale collect mutated root pool")
	}
	if idle := child.free.Idle(); len(idle) == 0 || idle[len(idle)-1] != stale || stale.Live() || len(stale.set) != 0 {
		t.Fatal("stale collect was not returned to its owner's free list")
	}
}

// TestSetsReturnToTheirOwner runs epochs and then checks where every set
// is: each one idle on a free list belongs to that list's agent, and each
// child sample an agent holds was sent by the child it is filed under.
func TestSetsReturnToTheirOwner(t *testing.T) {
	r := newRig(t, 40, 1.0)
	r.eng.RunUntil(10.5)
	for id, ag := range r.agents {
		for _, m := range ag.free.Idle() {
			if m.owner != ag {
				t.Fatalf("node %d's free list holds a set of node %d", id, m.owner.node.ID)
			}
		}
		for i, cm := range ag.childSamples {
			if cm == nil || cm.owner != r.agents[ag.childIDs[i]] {
				t.Fatalf("node %d files child %d's sample as %v", id, ag.childIDs[i], cm)
			}
		}
	}
}

// TestChildrenInAscendingID builds a tree from members listed in descending
// id: every agent's Children are its tree children in ascending id, index
// for index with ChildIDs (the ids its samples are filed under), and each
// child agent's parent link is the same connection. Members joining in the
// caller's order instead would file children in descending id.
func TestChildrenInAscendingID(t *testing.T) {
	agents := buildTree(descending(12), 0, 3, 3)
	for id, ag := range agents {
		if !slices.IsSorted(ag.ChildIDs()) {
			t.Fatalf("node %d child ids %v, want ascending order", id, ag.ChildIDs())
		}
		if len(ag.Children()) != len(ag.ChildIDs()) {
			t.Fatalf("node %d has %d child links for %d children", id, len(ag.Children()), len(ag.ChildIDs()))
		}
		for i, c := range ag.Children() {
			cid := c.Peer(ag.node).ID
			if cid != ag.ChildIDs()[i] {
				t.Fatalf("node %d child link %d leads to %d, want %d", id, i, cid, ag.ChildIDs()[i])
			}
			if agents[cid].parent != c {
				t.Fatalf("node %d's parent link is not its parent's link to it", cid)
			}
		}
	}
}

func TestSetReturnedTwicePanics(t *testing.T) {
	r := newRig(t, 3, 1000)
	m := r.agents[0].getSet()
	m.release()
	defer func() {
		if recover() == nil {
			t.Fatal("second release of one candidate set did not panic")
		}
	}()
	m.release()
}

// TestEpochAllocatesNothing pins the ownership of candidate sets: once every
// agent's free list, the message pools and the scratch maps have warmed up,
// a whole epoch — distribute down a 200-node tree, collect back up, the
// root's timer re-armed — allocates nothing when OnDistribute keeps nothing.
func TestEpochAllocatesNothing(t *testing.T) {
	const period = 1.0
	r := newRig(t, 200, period)
	for _, ag := range r.agents {
		ag.OnDistribute = func(int, []Candidate) {}
	}
	r.eng.RunUntil(5 * period)
	allocs := testing.AllocsPerRun(10, func() { r.eng.RunUntil(r.eng.Now() + period) })
	if allocs != 0 {
		t.Fatalf("a warm RanSub epoch allocates %v objects, want 0", allocs)
	}
}

func TestHandleUnknownKind(t *testing.T) {
	r := newRig(t, 3, 1.0)
	ag := r.agents[0]
	if ag.Handle(nil, proto.Message{Kind: 1}) {
		t.Fatal("Handle claimed an unknown kind")
	}
}
