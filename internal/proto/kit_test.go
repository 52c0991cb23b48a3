package proto

import (
	"slices"
	"testing"

	"bulletprime/internal/netem"
)

// TestClaimsCountAndRelease holds the count to the table: an endgame
// re-request moves a claim without counting it twice, releasing one
// owner's claims leaves the others', and unclaiming a block nobody holds
// changes nothing.
func TestClaimsCountAndRelease(t *testing.T) {
	c := NewClaims(64)
	c.Claim(3, 2)
	c.Claim(4, 2)
	c.Claim(5, 3)
	c.Claim(4, 3) // endgame: asked again elsewhere
	if c.Len() != 3 || !c.HeldBy(4, 3) || c.HeldBy(4, 2) {
		t.Fatalf("Len = %d after three distinct claims (4 by 3: %v, by 2: %v), want 3", c.Len(), c.HeldBy(4, 3), c.HeldBy(4, 2))
	}
	c.Unclaim(6) // held by nobody
	if c.Len() != 3 {
		t.Fatalf("Len = %d after unclaiming an unclaimed block, want 3", c.Len())
	}
	c.Release(3)
	if c.Len() != 1 || !c.HeldBy(3, 2) || c.Held(4) || c.Held(5) {
		t.Fatalf("after releasing owner 3: Len %d, held 3/4/5 = %v/%v/%v", c.Len(), c.Held(3), c.Held(4), c.Held(5))
	}
	c.Unclaim(3)
	c.Unclaim(3)
	if c.Len() != 0 || c.Held(3) {
		t.Fatalf("Len = %d after every claim went, want 0", c.Len())
	}
	c.Claim(9, 0) // owner 0 is a real node, not "nobody"
	c.Claim(10, 1)
	c.Clear()
	if c.Len() != 0 || c.Held(9) || c.Held(10) {
		t.Fatalf("Clear left Len %d", c.Len())
	}
}

// TestClaimsSizedAtFirstClaim: a table nobody claims from answers "not
// held" and takes nothing back, without allocating.
func TestClaimsSizedAtFirstClaim(t *testing.T) {
	c := NewClaims(1 << 20)
	allocs := testing.AllocsPerRun(10, func() {
		if c.Held(7) || c.HeldBy(7, 1) || c.Len() != 0 {
			t.Fatal("unsized table reports a claim")
		}
		c.Unclaim(7)
		c.Release(1)
		c.Clear()
	})
	if allocs != 0 || c.owner != nil {
		t.Fatalf("unsized table allocated (%v allocs/op)", allocs)
	}
	c.Claim(7, 1)
	if len(c.owner) != 1<<20 || !c.HeldBy(7, 1) {
		t.Fatal("first claim did not size the table")
	}
}

// zeroed resets the way core's payloads do: whole, dropping every
// reference it held.
type zeroed struct {
	Pooled
	id  int
	bw  float64
	ref []int
}

func (m *zeroed) Reset() { *m = zeroed{} }

// kept resets the way Bullet's availability answers do: emptied, with its
// slice kept for the next use.
type kept struct {
	Pooled
	ids []int
}

func (m *kept) Reset() { m.ids = m.ids[:0] }

// checkFreeList holds a FreeList to its contract for one payload type:
// payloads are distinct and live when handed out, a returned one is reset
// (as reset reports), not live, and handed out again, delivery checks pass a
// live payload and panic on a returned one, and a second Put panics.
func checkFreeList[T any, P interface {
	*T
	pooled() *Pooled
	Reset()
}](t *testing.T, fill func(P), isReset func(P) bool) {
	t.Helper()
	var f FreeList[T, P]
	a, b := f.Get(), f.Get()
	if a == b || !a.pooled().Live() || !b.pooled().Live() {
		t.Fatal("payloads not distinct and live when handed out")
	}
	if got := f.Delivered(any(a)); got != a {
		t.Fatal("delivery check did not return the payload")
	}
	fill(a)
	f.Put(a)
	if a.pooled().Live() || !isReset(a) || !slices.Contains(f.Idle(), a) {
		t.Fatalf("returned payload not reset and idle: %+v", *a)
	}
	mustPanic(t, "delivery of a payload already on its free list", func() { f.Delivered(any(a)) })
	if c := f.Get(); c != a || !c.pooled().Live() || len(f.Idle()) != 0 {
		t.Fatal("returned payload not reused")
	}
	f.Put(a)
	mustPanic(t, "second put of one payload", func() { f.Put(a) })
	if len(f.Idle()) != 1 {
		t.Fatalf("a refused put changed the list: %d idle", len(f.Idle()))
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestFreeListReusesAndGuards covers both reset shapes the protocols use.
func TestFreeListReusesAndGuards(t *testing.T) {
	checkFreeList(t,
		func(m *zeroed) { m.id, m.bw, m.ref = 7, 3.5, []int{1} },
		func(m *zeroed) bool { return m.id == 0 && m.bw == 0 && m.ref == nil })
	var array *int
	checkFreeList(t,
		func(m *kept) { m.ids = append(m.ids, 7, 8, 9); array = &m.ids[0] },
		func(m *kept) bool { return len(m.ids) == 0 && cap(m.ids) >= 3 && &m.ids[:1][0] == array })
}

type member struct{ id netem.NodeID }

func (m *member) NodeID() netem.NodeID { return m.id }

// TestIDListKeepsIDOrder inserts out of order and removes from the middle:
// the set ranges in id order throughout, and lookups find what is there.
func TestIDListKeepsIDOrder(t *testing.T) {
	var l IDList[*member]
	for _, id := range []netem.NodeID{5, 1, 9, 3, 7} {
		l.Insert(&member{id})
	}
	ids := func() (out []netem.NodeID) {
		for _, m := range l {
			out = append(out, m.id)
		}
		return out
	}
	if got := ids(); !slices.Equal(got, []netem.NodeID{1, 3, 5, 7, 9}) {
		t.Fatalf("set ranges as %v, want id order", got)
	}
	if i, ok := l.Index(7); !ok || i != 3 || !l.Has(1) || l.Has(4) {
		t.Fatalf("Index(7) = %d,%v; Has(1) %v, Has(4) %v", i, ok, l.Has(1), l.Has(4))
	}
	if i, ok := l.Index(4); ok || i != 2 {
		t.Fatalf("Index(4) = %d,%v, want insertion point 2", i, ok)
	}
	l.Remove(5)
	l.Remove(4) // absent: no change
	l.Insert(&member{4})
	if got := ids(); !slices.Equal(got, []netem.NodeID{1, 3, 4, 7, 9}) {
		t.Fatalf("after remove and insert the set ranges as %v", got)
	}
}

var refSink any

// TestIndexTableRoundTrips: every index's payload reads back as itself and
// points into the one table.
func TestIndexTableRoundTrips(t *testing.T) {
	tab := NewIndexTable(300)
	for i := range 300 {
		if got := IndexOf(tab.Ref(i)); got != i || tab.Ref(i) != &tab[i] {
			t.Fatalf("IndexOf(Ref(%d)) = %d", i, got)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { refSink = tab.Ref(299) }); allocs != 0 {
		t.Fatalf("boxing a Ref allocates %v objects", allocs)
	}
}
