package ransub

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

// newAgents makes an agent for each of the ids 0 to n-1 on a uniform
// network, and returns them by id with the network's engine.
func newAgents(n int, seed int64) (*sim.Engine, map[netem.NodeID]*Agent) {
	eng := sim.NewEngine()
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(100), netem.Mbps(100), netem.MS(1))
	rt := proto.NewRuntime(eng, netem.New(eng, topo, sim.NewRNG(seed).Stream("net")))
	agents := make(map[netem.NodeID]*Agent, n)
	for _, id := range ascending(n) {
		agents[id] = New(rt.NewNode(id), sim.NewRNG(seed).Stream("rs"), 1)
	}
	return eng, agents
}

// buildTree builds the control tree over members, the ids below
// len(members) in any order, into new agents, with the tree rng seeded as a
// session's, and returns the agents by id.
func buildTree(members []netem.NodeID, root netem.NodeID, degree int, seed int64) map[netem.NodeID]*Agent {
	_, agents := newAgents(len(members), seed)
	Build(members, root, degree, sim.NewRNG(seed).Stream("tree"), nil, func(id netem.NodeID) *Agent { return agents[id] })
	return agents
}

// ascending lists the ids 0 to n-1.
func ascending(n int) []netem.NodeID {
	ids := make([]netem.NodeID, n)
	for i := range ids {
		ids[i] = netem.NodeID(i)
	}
	return ids
}

// descending lists the ids n-1 down to 0.
func descending(n int) []netem.NodeID {
	ids := ascending(n)
	slices.Reverse(ids)
	return ids
}

// parentOf returns the id at the other end of id's parent link; the root's
// parent is itself.
func parentOf(agents map[netem.NodeID]*Agent, id netem.NodeID) netem.NodeID {
	ag := agents[id]
	if ag.parent == nil {
		return id
	}
	return ag.parent.Peer(ag.node).ID
}

// walk returns the tree's ids breadth-first from root.
func walk(agents map[netem.NodeID]*Agent, root netem.NodeID) []netem.NodeID {
	order := []netem.NodeID{root}
	for i := 0; i < len(order); i++ {
		order = append(order, agents[order[i]].ChildIDs()...)
	}
	return order
}

// subtreeSizes returns every node's subtree size, itself included.
func subtreeSizes(agents map[netem.NodeID]*Agent, root netem.NodeID) map[netem.NodeID]int {
	sizes := make(map[netem.NodeID]int)
	var size func(id netem.NodeID) int
	size = func(id netem.NodeID) int {
		n := 1
		for _, c := range agents[id].ChildIDs() {
			n += size(c)
		}
		sizes[id] = n
		return n
	}
	size(root)
	return sizes
}

// descendants returns every node below id.
func descendants(agents map[netem.NodeID]*Agent, id netem.NodeID) []netem.NodeID {
	var out []netem.NodeID
	for _, c := range agents[id].ChildIDs() {
		out = append(out, c)
		out = append(out, descendants(agents, c)...)
	}
	return out
}

// TestTreeShapeGolden pins the tree's shape, node by node, to hashes of
// node→parent recorded from the tree builder that Build replaced, which
// joined members in ascending id by the same random descent on the same
// rng. Members are listed here in descending id, so a Build that joined
// them in the caller's order would build other trees.
func TestTreeShapeGolden(t *testing.T) {
	for _, g := range []struct {
		n, degree int
		seed      int64
		hash      string
	}{
		{40, 4, 1, "86efb94c3941c4f8"},
		{40, 4, 7, "963cf9888b9e3dac"},
		{40, 4, 29, "b2da13195fb85af6"},
		{100, 4, 1, "15db1f20a85b1e41"},
		{100, 4, 7, "74671b13cd6d1c2c"},
		{100, 4, 29, "65d64b8fabccad0b"},
		{100, 10, 1, "c7206016139645dd"},
		{100, 10, 7, "463d541de6adb583"},
		{100, 10, 29, "f8cf040441296beb"},
		{500, 10, 1, "f7696c7f15695b53"},
		{500, 10, 7, "be630b4ce58f0dbb"},
		{500, 10, 29, "c2017041e7893e48"},
	} {
		agents := buildTree(descending(g.n), 0, g.degree, g.seed)
		h := sha256.New()
		for i := 0; i < g.n; i++ {
			fmt.Fprintf(h, "%d>%d\n", i, parentOf(agents, netem.NodeID(i)))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != g.hash {
			t.Errorf("n %d degree %d seed %d: tree shape hash %s, want %s", g.n, g.degree, g.seed, got, g.hash)
		}
	}
}

// treeFault names the first way the tree built over members 0..n-1 breaks
// the builder's invariants, or returns "": a walk from the root visits every
// member once, no node has more than degree children, every child link is
// the child's parent link and leads from its parent, and the root has no
// parent.
func treeFault(agents map[netem.NodeID]*Agent, n, degree int) string {
	if got := slices.Sorted(slices.Values(walk(agents, 0))); !slices.Equal(got, ascending(n)) {
		return fmt.Sprintf("a walk from the root visits %v", got)
	}
	for id, ag := range agents {
		if len(ag.ChildIDs()) > degree {
			return fmt.Sprintf("node %d has %d children, max %d", id, len(ag.ChildIDs()), degree)
		}
		for i, c := range ag.Children() {
			if cid := ag.ChildIDs()[i]; agents[cid].parent != c || parentOf(agents, cid) != id {
				return fmt.Sprintf("child %d of %d has parent %d", cid, id, parentOf(agents, cid))
			}
		}
	}
	if agents[0].parent != nil {
		return "the root has a parent"
	}
	return ""
}

func TestBuildConnectivity(t *testing.T) {
	agents := buildTree(descending(50), 0, 4, 1)
	if got := slices.Sorted(slices.Values(walk(agents, 0))); !slices.Equal(got, ascending(50)) {
		t.Fatalf("a walk from the root visits %v, want each of the 50 members once", got)
	}
}

func TestBuildDegreeBound(t *testing.T) {
	agents := buildTree(descending(200), 0, 3, 2)
	for id, ag := range agents {
		if len(ag.ChildIDs()) > 3 {
			t.Fatalf("node %d has %d children, max 3", id, len(ag.ChildIDs()))
		}
	}
}

func TestBuildParentChildConsistency(t *testing.T) {
	agents := buildTree(descending(64), 0, 5, 3)
	for id, ag := range agents {
		for _, c := range ag.ChildIDs() {
			if parentOf(agents, c) != id {
				t.Fatalf("child %d of %d has parent %d", c, id, parentOf(agents, c))
			}
		}
	}
	if parentOf(agents, 0) != 0 {
		t.Fatal("the root must have no parent link")
	}
}

// TestBuildTreeInvariants is the property: for any size, degree and seed,
// the tree keeps every invariant treeFault checks.
func TestBuildTreeInvariants(t *testing.T) {
	f := func(nRaw, degRaw uint8, seed int64) bool {
		n := int(nRaw%100) + 2
		deg := int(degRaw%6) + 1
		if fault := treeFault(buildTree(descending(n), 0, deg, seed), n, deg); fault != "" {
			t.Logf("n %d degree %d seed %d: %s", n, deg, seed, fault)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDuplicateMemberPanics(t *testing.T) {
	_, agents := newAgents(5, 4)
	defer func() {
		if r := recover(); r != "ransub: a member joins the tree twice" {
			t.Errorf("a member listed twice panicked with %v", r)
		}
	}()
	Build([]netem.NodeID{0, 1, 2, 3, 3, 4}, 0, 2, sim.NewRNG(4).Stream("tree"), nil, func(id netem.NodeID) *Agent { return agents[id] })
}

func TestBuildDeterministic(t *testing.T) {
	a := buildTree(descending(40), 0, 4, 9)
	b := buildTree(descending(40), 0, 4, 9)
	for id := range a {
		if parentOf(a, id) != parentOf(b, id) {
			t.Fatal("same seed built different trees")
		}
	}
}

// TestBuildDialsBreadthFirst records the order in which tree children see
// their parent's dial. Every path has the same delay, so the SYNs arrive in
// dial order, which must be breadth-first from the root, a node's children
// in ascending id.
func TestBuildDialsBreadthFirst(t *testing.T) {
	const n = 60
	eng, agents := newAgents(n, 5)
	var accepted []netem.NodeID
	for id, ag := range agents {
		ag.node.OnAccept = func(*proto.Conn) { accepted = append(accepted, id) }
	}
	Build(descending(n), 0, 3, sim.NewRNG(5).Stream("tree"), nil, func(id netem.NodeID) *Agent { return agents[id] })
	eng.RunUntil(1)
	if want := walk(agents, 0)[1:]; !slices.Equal(accepted, want) {
		t.Fatalf("children saw their dials in order %v, want breadth-first %v", accepted, want)
	}
}

func candidateIDs(set []Candidate) []netem.NodeID {
	ids := make([]netem.NodeID, len(set))
	for i, c := range set {
		ids[i] = c.ID
	}
	return ids
}

// TestStrandedSubtreeBeforeRepair pins today's relation after an interior
// node fails: the control tree is never repaired, so the failed node's live
// descendants receive no candidate set for the rest of the run, and the
// root, waiting forever for the dead child's collect, never installs a new
// pool. The tree repair (ROADMAP item 17, "RanSub survives a departure")
// flips both assertions: it is the test that change edits.
func TestStrandedSubtreeBeforeRepair(t *testing.T) {
	r := newRig(t, 100, 5.0)
	root := r.root
	sizes := subtreeSizes(r.agents, root)
	victim := r.agents[root].ChildIDs()[0]
	for _, c := range r.agents[root].ChildIDs() {
		if sizes[c] > sizes[victim] {
			victim = c
		}
	}
	r.eng.RunUntil(30)
	before := make(map[netem.NodeID]int)
	for id, sets := range r.received {
		before[id] = len(sets)
	}
	pool := candidateIDs(r.agents[root].pool)
	epoch := r.agents[root].epoch

	r.agents[victim].node.Fail()
	r.eng.RunUntil(300)

	stranded := descendants(r.agents, victim)
	if len(stranded) != 32 {
		t.Fatalf("failed node %d has %d descendants, want the recipe's 32", victim, len(stranded))
	}
	if epochs := r.agents[root].epoch - epoch; epochs != 54 {
		t.Fatalf("root ran %d epochs after the failure, want 54", epochs)
	}
	for _, id := range stranded {
		if got := len(r.received[id]) - before[id]; got != 0 {
			t.Errorf("stranded node %d received %d sets after its ancestor failed, want 0 until the tree is repaired", id, got)
		}
	}
	if got := candidateIDs(r.agents[root].pool); !slices.Equal(got, pool) {
		t.Errorf("root pool changed from %v to %v; it stays frozen until the tree is repaired", pool, got)
	}
	// Everyone outside the failed subtree keeps receiving one set per epoch.
	cut := map[netem.NodeID]bool{victim: true}
	for _, id := range stranded {
		cut[id] = true
	}
	for id := range r.agents {
		if cut[id] {
			continue
		}
		if got := len(r.received[id]) - before[id]; got != 54 {
			t.Errorf("live node %d outside the failed subtree received %d sets over 54 epochs", id, got)
		}
	}
}

// TestCollectWaitsForEveryChild pins the collect phase (paper §3.2.2): each
// epoch every parent receives exactly one collect from each child, each
// collect weighs its sender's whole subtree, and the root installs its next
// pool only on its last child's collect. A collect that completed at the
// first child would send early, undersized samples and reinstall the pool
// mid-epoch.
func TestCollectWaitsForEveryChild(t *testing.T) {
	r := newRig(t, 40, 1.0)
	root := r.root
	sizes := subtreeSizes(r.agents, root)
	type edge struct {
		parent, child netem.NodeID
		epoch         int
	}
	collects := make(map[edge]int)
	installs := 0
	for id, ag := range r.agents {
		ag.node.OnMessage = func(c *proto.Conn, m proto.Message) {
			if m.Kind != KindCollect {
				ag.Handle(c, m)
				return
			}
			from := c.Peer(ag.node).ID
			cm := m.Payload.(*setMsg)
			if cm.subtreeSize != sizes[from] {
				t.Fatalf("node %d's collect to %d weighs %d, want its subtree's %d", from, id, cm.subtreeSize, sizes[from])
			}
			collects[edge{id, from, cm.epoch}]++
			if id != root {
				ag.Handle(c, m)
				return
			}
			last := cm.epoch == ag.epoch && ag.collected == len(r.agents[root].ChildIDs())-1
			pool := candidateIDs(ag.pool)
			ag.Handle(c, m)
			if last {
				installs++
			} else if got := candidateIDs(ag.pool); !slices.Equal(got, pool) {
				t.Fatalf("root installed a pool at child %d's collect of epoch %d, before its last child's", from, cm.epoch)
			}
		}
	}
	r.eng.RunUntil(20.5)
	epochs := r.agents[root].epoch
	if epochs < 20 {
		t.Fatalf("root ran %d epochs in 20 s, want 20", epochs)
	}
	// Every epoch but the last has completed its collect; the last may have.
	completed := 0
	for e := 1; e <= epochs; e++ {
		done := true
		for id := range r.agents {
			for _, c := range r.agents[id].ChildIDs() {
				n := collects[edge{id, c, e}]
				if n > 1 || n == 0 && e < epochs {
					t.Fatalf("epoch %d: node %d received %d collects from child %d, want 1", e, id, n, c)
				}
				done = done && n == 1
			}
		}
		if done {
			completed++
		}
	}
	if installs != completed {
		t.Fatalf("root installed %d pools over %d completed epochs", installs, completed)
	}
}
