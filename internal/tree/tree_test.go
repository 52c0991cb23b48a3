package tree

import (
	"testing"
	"testing/quick"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

func ids(n int) []netem.NodeID {
	out := make([]netem.NodeID, n)
	for i := range out {
		out[i] = netem.NodeID(i)
	}
	return out
}

func TestBuildConnectivity(t *testing.T) {
	rng := sim.NewRNG(1)
	tr := Build(ids(50), 0, 4, rng)
	if tr.Size() != 50 {
		t.Fatalf("size = %d, want 50", tr.Size())
	}
	visited := 0
	tr.Walk(func(id netem.NodeID) { visited++ })
	if visited != 50 {
		t.Fatalf("walk visited %d, want 50", visited)
	}
	for _, id := range ids(50) {
		if !tr.Contains(id) {
			t.Fatalf("node %d missing", id)
		}
		if id != 0 {
			// Every non-root node must reach the root.
			_ = tr.Depth(id) // panics on a cycle
		}
	}
}

func TestDegreeBound(t *testing.T) {
	rng := sim.NewRNG(2)
	tr := Build(ids(200), 0, 3, rng)
	tr.Walk(func(id netem.NodeID) {
		if len(tr.Children(id)) > 3 {
			t.Fatalf("node %d has %d children, max 3", id, len(tr.Children(id)))
		}
	})
}

func TestParentChildConsistency(t *testing.T) {
	rng := sim.NewRNG(3)
	tr := Build(ids(64), 0, 5, rng)
	tr.Walk(func(id netem.NodeID) {
		for _, c := range tr.Children(id) {
			if tr.Parent(c) != id {
				t.Fatalf("child %d of %d has parent %d", c, id, tr.Parent(c))
			}
		}
	})
	if tr.Parent(0) != 0 {
		t.Fatal("root parent must be itself")
	}
}

func TestJoinDuplicatePanics(t *testing.T) {
	rng := sim.NewRNG(4)
	tr := Build(ids(5), 0, 2, rng)
	defer func() {
		if recover() == nil {
			t.Error("duplicate join did not panic")
		}
	}()
	tr.Join(3, rng)
}

func TestDeterministicBuild(t *testing.T) {
	a := Build(ids(40), 0, 4, sim.NewRNG(9))
	b := Build(ids(40), 0, 4, sim.NewRNG(9))
	for _, id := range ids(40) {
		if a.Parent(id) != b.Parent(id) {
			t.Fatal("same seed built different trees")
		}
	}
}

// Property: for any size and degree, the tree is acyclic, fully connected,
// degree-bounded, and has reasonable height.
func TestPropertyTreeInvariants(t *testing.T) {
	f := func(nRaw, degRaw uint8, seed int64) bool {
		n := int(nRaw%100) + 2
		deg := int(degRaw%6) + 1
		tr := Build(ids(n), 0, deg, sim.NewRNG(seed))
		if tr.Size() != n {
			return false
		}
		count := 0
		tr.Walk(func(id netem.NodeID) {
			count++
			if len(tr.Children(id)) > deg {
				count = -1 << 30
			}
		})
		return count == n && tr.MaxDepth() < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
