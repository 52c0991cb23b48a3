package proto

import (
	"cmp"
	"slices"

	"bulletprime/internal/netem"
)

// The pull-protocol kit: the per-peer mechanics Bullet', Bullet, BitTorrent
// and SplitStream share. A receiver asks for each block from one sender at
// a time and takes the claim back when the peering ends (Claims); payloads
// that travel once per message are recycled (FreeList) or name one block
// by pointing into an immutable table (IndexTable); and every set of peers
// a loop walks is kept in node-id order (IDList), the order that keeps a
// run deterministic per seed.

// Claims records, per block, the peer a block is requested from; a block
// is held by at most one owner. The table is sized at the first Claim, so
// a node that never requests anything never pays for it, and until then
// every block reads as not held.
type Claims struct {
	n     int
	owner []int32 // 1 + the owner's id; 0 when the block is held by nobody
	count int     // nonzero entries of owner
}

// NewClaims returns an empty claim table over n blocks.
func NewClaims(n int) Claims { return Claims{n: n} }

func claimTag(id netem.NodeID) int32 { return int32(id) + 1 }

// Claim records block b as requested from owner. A block held by another
// owner moves to this one (BitTorrent's endgame) without counting twice.
func (c *Claims) Claim(b int, owner netem.NodeID) {
	if c.owner == nil {
		c.owner = make([]int32, c.n)
	}
	if c.owner[b] == 0 {
		c.count++
	}
	c.owner[b] = claimTag(owner)
}

// Unclaim records block b as requested from nobody.
func (c *Claims) Unclaim(b int) {
	if c.count > 0 && c.owner[b] != 0 {
		c.owner[b] = 0
		c.count--
	}
}

// Release takes back every claim the given owner holds, in one pass.
func (c *Claims) Release(owner netem.NodeID) {
	if c.count == 0 {
		return
	}
	tag := claimTag(owner)
	for b, o := range c.owner {
		if o == tag {
			c.owner[b] = 0
			c.count--
		}
	}
}

// Held reports whether block b is requested from anyone.
func (c *Claims) Held(b int) bool { return c.count > 0 && c.owner[b] != 0 }

// HeldBy reports whether block b is requested from owner.
func (c *Claims) HeldBy(b int, owner netem.NodeID) bool {
	return c.count > 0 && c.owner[b] == claimTag(owner)
}

// Len returns how many blocks are held.
func (c *Claims) Len() int { return c.count }

// Clear takes back every claim at once.
func (c *Claims) Clear() {
	clear(c.owner)
	c.count = 0
}

// Pooled is embedded in every payload a FreeList recycles. It carries the
// payload's live flag, which only the list sets: live from Get until Put.
type Pooled struct{ live bool }

func (p *Pooled) pooled() *Pooled { return p }

// Live reports whether the payload is out of its list.
func (p *Pooled) Live() bool { return p.live }

// FreeList recycles one payload type for the life of a session, so a
// message loop boxes no fresh object per message. A payload is live from
// Get until Put; its Reset runs at Put. One that is never delivered —
// queued on a connection that closed, addressed to a failed node, lost with
// a testbed link — is never put back and falls to the collector; it cannot
// be handed out again, so a dropped message never corrupts a later one.
type FreeList[T any, P interface {
	*T
	pooled() *Pooled
	Reset()
}] struct {
	free []P
}

// Get hands out a reset payload marked live.
func (f *FreeList[T, P]) Get() P {
	var m P
	if n := len(f.free); n > 0 {
		m = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		m = new(T)
	}
	m.pooled().live = true
	return m
}

// Put takes a delivered payload back. Returning one that is not live would
// let two in-flight messages share it, so that panics.
func (f *FreeList[T, P]) Put(m P) {
	if !m.pooled().live {
		panic("proto: payload returned to its free list twice")
	}
	m.Reset()
	m.pooled().live = false
	f.free = append(f.free, m)
}

// Delivered is the check a payload passes on arrival: one that is not live
// went back to its list while still in flight, and may since have been
// handed to another message.
func (f *FreeList[T, P]) Delivered(payload any) P {
	m := payload.(P)
	if !m.pooled().live {
		panic("proto: payload delivered after it was returned to its free list")
	}
	return m
}

// Idle returns the payloads on the list, the next one Get hands out last.
// The caller must not change it.
func (f *FreeList[T, P]) Idle() []P { return f.free }

// IndexTable holds i at index i. A payload that names one block (or piece)
// is a pointer into it, so sending one allocates nothing; nothing writes
// the table after NewIndexTable.
type IndexTable []int32

// NewIndexTable returns the table for indices [0, n).
func NewIndexTable(n int) IndexTable {
	t := make(IndexTable, n)
	for i := range t {
		t[i] = int32(i)
	}
	return t
}

// Ref is the payload naming index i.
func (t IndexTable) Ref(i int) *int32 { return &t[i] }

// IndexOf reads back the index a Ref payload names.
func IndexOf(payload any) int { return int(*payload.(*int32)) }

// IDList is a set of peers kept in node-id order, the order every loop over
// one must take for a run to stay deterministic. It ranges as a slice; a
// loop that drops or reorders entries as it goes walks a copy.
type IDList[P interface{ NodeID() netem.NodeID }] []P

// Index returns where the peer with the given id is, or would be inserted.
func (l IDList[P]) Index(id netem.NodeID) (int, bool) {
	return slices.BinarySearchFunc(l, id, func(p P, id netem.NodeID) int { return cmp.Compare(p.NodeID(), id) })
}

// Has reports whether the peer with the given id is in the set.
func (l IDList[P]) Has(id netem.NodeID) bool {
	_, ok := l.Index(id)
	return ok
}

// Insert adds a peer whose id is not in the set yet.
func (l *IDList[P]) Insert(p P) {
	i, _ := l.Index(p.NodeID())
	*l = slices.Insert(*l, i, p)
}

// Remove drops the peer with the given id, if present.
func (l *IDList[P]) Remove(id netem.NodeID) {
	if i, ok := l.Index(id); ok {
		*l = slices.Delete(*l, i, i+1)
	}
}
