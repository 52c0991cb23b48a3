package proto

import (
	"math"
	"math/bits"
	"testing"

	"bulletprime/internal/sim"
)

// ForEachMissing calls fn for every block not held, in index order, until
// fn returns false. It was how UsefulTo found its samples before it located
// them by rank, and is kept here as the walk the oracle below is built on.
func (s *BlockStore) ForEachMissing(fn func(i int) bool) {
	for wi, w := range s.bm.words {
		// The clear bits of the word, least significant first; positions
		// past the last block read as held.
		miss := ^w
		if tail := s.bm.n - wi<<6; tail < 64 {
			miss &= 1<<uint(tail) - 1
		}
		for ; miss != 0; miss &= miss - 1 {
			if !fn(wi<<6 + bits.TrailingZeros64(miss)) {
				return
			}
		}
	}
}

// usefulToWalk is UsefulTo as it was: visit every missing block, test the
// ones whose rank among the missing is a multiple of the stride.
func usefulToWalk(s *Summary, store *BlockStore, sampleMax int) float64 {
	missing := store.Missing()
	if missing == 0 || s.Count == 0 {
		return 0
	}
	if sampleMax <= 0 {
		sampleMax = 64
	}
	stride := missing/sampleMax + 1
	seen, hits, idx := 0, 0, 0
	store.ForEachMissing(func(i int) bool {
		if idx%stride == 0 {
			seen++
			if s.MayHave(i) {
				hits++
			}
		}
		idx++
		return true
	})
	if seen == 0 {
		return 0
	}
	est := float64(hits) / float64(seen) * float64(missing)
	return math.Min(est, float64(s.Count))
}

// storeFromBits builds an n-block store holding block i iff bit i of held
// (read cyclically) is set.
func storeFromBits(n int, held []byte) *BlockStore {
	s := NewBlockStore(n)
	if len(held) == 0 {
		return s
	}
	for i := 0; i < n; i++ {
		if held[(i>>3)%len(held)]&(1<<(i&7)) != 0 {
			s.Add(i, 0)
		}
	}
	return s
}

// checkUsefulTo holds UsefulTo to the walk, bit for bit, at each sample bound.
func checkUsefulTo(t *testing.T, sum *Summary, store *BlockStore, sampleMaxes ...int) {
	t.Helper()
	for _, sampleMax := range sampleMaxes {
		got, want := sum.UsefulTo(store, sampleMax), usefulToWalk(sum, store, sampleMax)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d held=%d summarized=%d sampleMax=%d: UsefulTo %v, the walk gives %v",
				store.NumBlocks(), store.Count(), sum.Count, sampleMax, got, want)
		}
	}
}

// TestUsefulToMatchesWalk pins the rank-sampled UsefulTo to the walk it
// replaced, bit for bit: on empty, full and patterned stores of sizes either
// side of every word boundary, then on random stores as they fill.
func TestUsefulToMatchesWalk(t *testing.T) {
	sampleMaxes := []int{0, 1, 7, 64, 1000}
	patterns := [][]byte{nil, {0xff}, {0x55}, {0x01}, {0x80, 0x00, 0x00}, {0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}}
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 500, 640, 700} {
		for _, held := range patterns {
			for _, other := range patterns {
				checkUsefulTo(t, NewSummary(storeFromBits(n, other)), storeFromBits(n, held), sampleMaxes...)
			}
		}
	}
	rng := sim.NewRNG(23)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(700)
		other := NewBlockStore(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				other.Add(i, 0)
			}
		}
		sum := NewSummary(other)
		store := NewBlockStore(n)
		checkUsefulTo(t, sum, store, sampleMaxes...)
		for _, b := range rng.Perm(n) {
			store.Add(b, 0)
			checkUsefulTo(t, sum, store, sampleMaxes...)
		}
	}
}

// FuzzUsefulToMatchesWalk is the same equality on stores the fuzzer draws:
// a size in 1..700, the bits held here, the bits the summarized node holds,
// and the sample bound.
func FuzzUsefulToMatchesWalk(f *testing.F) {
	f.Add(uint16(0), int16(64), []byte{}, []byte{0xff})
	f.Add(uint16(63), int16(0), []byte{0x55}, []byte{0xaa})
	f.Add(uint16(64), int16(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}, []byte{0xff})
	f.Add(uint16(699), int16(1000), []byte{0x01, 0x00, 0x80}, []byte{0x0f, 0xf0})
	f.Add(uint16(129), int16(-3), []byte{0xff}, []byte{0xff})
	f.Fuzz(func(t *testing.T, size uint16, sampleMax int16, held, other []byte) {
		n := 1 + int(size)%700
		checkUsefulTo(t, NewSummary(storeFromBits(n, other)), storeFromBits(n, held), int(sampleMax))
	})
}
