// Package tree builds the random overlay control tree Bullet' uses for
// joining the system, propagating RanSub epochs, and pushing blocks from
// the source (paper §3.1 step 1). It is also reused as the per-stripe tree
// substrate of the SplitStream baseline.
package tree

import (
	"fmt"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// Tree is a rooted overlay tree over node ids with bounded out-degree.
type Tree struct {
	root      netem.NodeID
	maxDegree int
	parent    map[netem.NodeID]netem.NodeID
	children  map[netem.NodeID][]netem.NodeID
}

// Build constructs a random tree: every node joins at the root and walks
// down through random children until it finds a node with spare degree.
// This is the MACEDON "random tree" used by the paper's control plane. The
// node order and rng determine the shape deterministically.
func Build(ids []netem.NodeID, root netem.NodeID, maxDegree int, rng *sim.RNG) *Tree {
	if maxDegree < 1 {
		panic("tree: maxDegree must be >= 1")
	}
	t := &Tree{
		root:      root,
		maxDegree: maxDegree,
		parent:    make(map[netem.NodeID]netem.NodeID, len(ids)),
		children:  make(map[netem.NodeID][]netem.NodeID, len(ids)),
	}
	t.parent[root] = root
	for _, id := range ids {
		if id == root {
			continue
		}
		t.Join(id, rng)
	}
	return t
}

// Join inserts a node by random descent from the root. It panics on
// duplicate joins.
func (t *Tree) Join(id netem.NodeID, rng *sim.RNG) {
	if _, ok := t.parent[id]; ok {
		panic(fmt.Sprintf("tree: node %d already joined", id))
	}
	cur := t.root
	for {
		kids := t.children[cur]
		if len(kids) < t.maxDegree {
			t.children[cur] = append(kids, id)
			t.parent[id] = cur
			return
		}
		cur = kids[rng.Pick(len(kids))]
	}
}

// Root returns the tree root.
func (t *Tree) Root() netem.NodeID { return t.root }

// Parent returns the parent of id; the root's parent is itself.
func (t *Tree) Parent(id netem.NodeID) netem.NodeID { return t.parent[id] }

// Children returns the children of id (internal slice; do not mutate).
func (t *Tree) Children(id netem.NodeID) []netem.NodeID { return t.children[id] }

// Contains reports whether id has joined the tree.
func (t *Tree) Contains(id netem.NodeID) bool {
	_, ok := t.parent[id]
	return ok
}

// Size returns the number of joined nodes.
func (t *Tree) Size() int { return len(t.parent) }

// IsLeaf reports whether id has no children.
func (t *Tree) IsLeaf(id netem.NodeID) bool { return len(t.children[id]) == 0 }

// Depth returns the number of edges from id up to the root.
func (t *Tree) Depth(id netem.NodeID) int {
	d := 0
	for id != t.root {
		id = t.parent[id]
		d++
		if d > t.Size() {
			panic("tree: parent cycle")
		}
	}
	return d
}

// Walk visits every node in BFS order from the root.
func (t *Tree) Walk(fn func(id netem.NodeID)) {
	queue := []netem.NodeID{t.root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		fn(id)
		queue = append(queue, t.children[id]...)
	}
}

// MaxDepth returns the tree height in edges.
func (t *Tree) MaxDepth() int {
	max := 0
	t.Walk(func(id netem.NodeID) {
		if d := t.Depth(id); d > max {
			max = d
		}
	})
	return max
}
