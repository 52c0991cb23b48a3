package proto

import (
	"fmt"
	"math"
	"math/bits"

	"bulletprime/internal/sim"
)

// Bitmap is a fixed-size bit set over block indices.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap creates an empty bitmap over n blocks.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of block positions.
func (b *Bitmap) Len() int { return b.n }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic(rangeError{i, b.n})
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// rangeError is Get's and Set's panic value. Formatting the message in
// Error, off their path, is what lets them inline (and BlockStore.Have into
// the block-selection scans): a fmt.Sprintf in the body puts either over the
// inliner's budget.
type rangeError struct{ i, n int }

func (e rangeError) Error() string {
	return fmt.Sprintf("proto: bitmap index %d out of [0,%d)", e.i, e.n)
}

// Set sets bit i and reports whether it was previously clear.
func (b *Bitmap) Set(i int) bool {
	if i < 0 || i >= b.n {
		panic(rangeError{i, b.n})
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	return true
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

// ForEachSet calls fn for every set bit, in index order.
func (b *Bitmap) ForEachSet(fn func(i int)) {
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			fn(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}

// Clone returns a copy.
func (b *Bitmap) Clone() *Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{n: b.n, words: w}
}

// Reset clears every bit, keeping the words for reuse.
func (b *Bitmap) Reset() { clear(b.words) }

// WireSize returns the serialized size of the bitmap in bytes.
func (b *Bitmap) WireSize() float64 { return float64(len(b.words) * 8) }

// BlockStore tracks which blocks of the file a node holds, in arrival
// order. Arrival order is what Bullet's incremental diffs walk: a peer is
// told about each block exactly once, by index into the arrival log.
type BlockStore struct {
	bm       *Bitmap
	arrivals []int      // block ids in the order received
	times    []sim.Time // arrival time per arrivals entry
	// summary is the last snapshot NewSummary took, and sketch the Bloom
	// filter over the summary.Count earliest arrivals it copied.
	sketch  [summaryWords]uint64
	summary *Summary
}

// NewBlockStore creates an empty store for n blocks.
func NewBlockStore(n int) *BlockStore {
	return &BlockStore{bm: NewBitmap(n)}
}

// NumBlocks returns the file's total block count.
func (s *BlockStore) NumBlocks() int { return s.bm.Len() }

// Have reports whether block i has been received.
func (s *BlockStore) Have(i int) bool { return s.bm.Get(i) }

// Count returns the number of blocks held.
func (s *BlockStore) Count() int { return len(s.arrivals) }

// Complete reports whether every block is held.
func (s *BlockStore) Complete() bool { return len(s.arrivals) == s.bm.Len() }

// Missing returns the number of blocks not yet held.
func (s *BlockStore) Missing() int { return s.bm.Len() - len(s.arrivals) }

// Add records the arrival of block i at time t, reporting whether it was
// new (false means a duplicate).
func (s *BlockStore) Add(i int, t sim.Time) bool {
	if !s.bm.Set(i) {
		return false
	}
	if s.arrivals == nil {
		// The first arrival sizes the log for a complete store, which is no
		// more than appending would grow it to. Sizing it here, not in
		// NewBlockStore, keeps a run's set-up from paying for it.
		s.arrivals = make([]int, 0, s.bm.Len())
		s.times = make([]sim.Time, 0, s.bm.Len())
	}
	s.arrivals = append(s.arrivals, i)
	s.times = append(s.times, t)
	return true
}

// ArrivalsSince returns block ids received since the given cursor, and the
// new cursor. The slice aliases internal storage; callers must not mutate.
func (s *BlockStore) ArrivalsSince(cursor int) ([]int, int) {
	if cursor < 0 {
		cursor = 0
	}
	if cursor > len(s.arrivals) {
		cursor = len(s.arrivals)
	}
	return s.arrivals[cursor:], len(s.arrivals)
}

// ArrivalTimes returns the arrival time of the k-th received block (by
// arrival order). Used for the Figure 13 inter-arrival analysis.
func (s *BlockStore) ArrivalTimes() []sim.Time { return s.times }

// Bitmap returns the underlying availability bitmap (not a copy).
func (s *BlockStore) Bitmap() *Bitmap { return s.bm }

// Summary is the compact availability sketch a node advertises through
// RanSub (§3.1 "file info"): the node's identity is carried alongside, the
// sketch is a small Bloom filter over held block ids plus the exact count.
// Receivers use it to estimate how many useful (missing-here) blocks a
// candidate sender holds. A Summary is an immutable snapshot, shared by
// every holder of the pointer.
type Summary struct {
	Count int
	Total int
	bits  [summaryWords]uint64
}

// summaryBits is the Bloom filter size in bits. 2048 bits ≈ 256 bytes per
// advertised node, matching the paper's "compact summaries" goal.
const (
	summaryBits   = 2048
	summaryWords  = summaryBits / 64
	summaryHashes = 3
)

// NewSummary returns a sketch of the store's current contents: the last
// snapshot while no block has arrived since, otherwise a new one, made by
// ORing the blocks that arrived since into the store's running sketch and
// copying it. An OR does not depend on order, so every block is hashed once
// and the bits equal a sketch rebuilt from the whole arrival log.
func NewSummary(s *BlockStore) *Summary {
	last := s.summary
	if last != nil && last.Count == s.Count() {
		return last
	}
	from := 0
	if last != nil {
		from = last.Count
	}
	for _, b := range s.arrivals[from:] {
		for i := range summaryHashes {
			h := summaryHash(b, i) % summaryBits
			s.sketch[h>>6] |= 1 << (h & 63)
		}
	}
	s.summary = &Summary{Count: s.Count(), Total: s.NumBlocks(), bits: s.sketch}
	return s.summary
}

func summaryHash(b, i int) uint64 {
	h := uint64(b)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// MayHave reports whether block b may be in the summarized set (Bloom
// semantics: false negatives never occur).
func (s *Summary) MayHave(b int) bool {
	for i := range summaryHashes {
		h := summaryHash(b, i) % summaryBits
		if s.bits[h>>6]&(1<<(h&63)) == 0 {
			return false
		}
	}
	return true
}

// UsefulTo estimates how many blocks missing from store the summarized
// node could supply, by testing every stride-th missing block — about
// sampleMax of them — against the Bloom filter and scaling. The sampled
// blocks are found by rank: a word's missing blocks are counted, not
// visited, unless a sample falls among them.
func (s *Summary) UsefulTo(store *BlockStore, sampleMax int) float64 {
	missing := store.Missing()
	if missing == 0 || s.Count == 0 {
		return 0
	}
	if sampleMax <= 0 {
		sampleMax = 64
	}
	stride := missing/sampleMax + 1
	seen, hits := 0, 0
	// rank is the number of missing blocks below miss's lowest set bit,
	// next the rank of the next block to sample.
	rank, next := 0, 0
	for wi, w := range store.bm.words {
		// The clear bits of the word; positions past the last block read
		// as held.
		miss := ^w
		if tail := store.bm.n - wi<<6; tail < 64 {
			miss &= 1<<uint(tail) - 1
		}
		end := rank + bits.OnesCount64(miss)
		for ; next < end; next += stride {
			for ; rank < next; rank++ {
				miss &= miss - 1
			}
			seen++
			if s.MayHave(wi<<6 + bits.TrailingZeros64(miss)) {
				hits++
			}
		}
		rank = end
	}
	est := float64(hits) / float64(seen) * float64(missing)
	// A summary can never be more useful than the blocks it contains.
	return math.Min(est, float64(s.Count))
}

// WireSize returns the advertised size of a summary in bytes.
func (s *Summary) WireSize() float64 { return summaryBits/8 + 16 }
