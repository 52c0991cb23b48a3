package ransub

import (
	"slices"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/tree"
)

// subtreeSizes returns every node's subtree size in tr, itself included.
func subtreeSizes(tr *tree.Tree) map[netem.NodeID]int {
	sizes := make(map[netem.NodeID]int)
	var size func(id netem.NodeID) int
	size = func(id netem.NodeID) int {
		n := 1
		for _, c := range tr.Children(id) {
			n += size(c)
		}
		sizes[id] = n
		return n
	}
	size(tr.Root())
	return sizes
}

// descendants returns every node below id in tr.
func descendants(tr *tree.Tree, id netem.NodeID) []netem.NodeID {
	var out []netem.NodeID
	for _, c := range tr.Children(id) {
		out = append(out, c)
		out = append(out, descendants(tr, c)...)
	}
	return out
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
	root := r.tr.Root()
	sizes := subtreeSizes(r.tr)
	victim := r.tr.Children(root)[0]
	for _, c := range r.tr.Children(root) {
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

	stranded := descendants(r.tr, victim)
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
	root := r.tr.Root()
	sizes := subtreeSizes(r.tr)
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
			last := cm.epoch == ag.epoch && ag.collected == len(r.tr.Children(root))-1
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
			for _, c := range r.tr.Children(id) {
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
