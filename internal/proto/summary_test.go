package proto

import (
	"testing"

	"bulletprime/internal/sim"
)

// summaryRebuild is NewSummary as it was: a fresh sketch hashed from the
// store's whole arrival log. It is the oracle the running sketch is held to.
func summaryRebuild(s *BlockStore) *Summary {
	sum := &Summary{Count: s.Count(), Total: s.NumBlocks()}
	for _, b := range s.arrivals {
		for i := range summaryHashes {
			h := summaryHash(b, i) % summaryBits
			sum.bits[h>>6] |= 1 << (h & 63)
		}
	}
	return sum
}

// TestSummaryMatchesRebuild checks the snapshot rules: after every Add, in
// random order, NewSummary equals a rebuild from the arrival log bit for
// bit; with no Add in between it returns the same pointer; and an Add
// leaves every earlier snapshot as it was.
func TestSummaryMatchesRebuild(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, n := range []int{1, 63, 64, 65, 500, 6400} {
		s := NewBlockStore(n)
		prev := NewSummary(s)
		if *prev != *summaryRebuild(s) {
			t.Fatalf("n=%d: empty store's summary differs from the rebuild", n)
		}
		for _, b := range rng.Perm(n) {
			frozen := *prev
			s.Add(b, 0)
			s.Add(b, 0) // a duplicate changes nothing
			sum := NewSummary(s)
			if sum == prev {
				t.Fatalf("n=%d held=%d: an arrival kept the old snapshot", n, s.Count())
			}
			if *sum != *summaryRebuild(s) {
				t.Fatalf("n=%d held=%d: summary differs from the rebuild", n, s.Count())
			}
			if NewSummary(s) != sum {
				t.Fatalf("n=%d held=%d: no arrival, yet a new snapshot", n, s.Count())
			}
			if *prev != frozen {
				t.Fatalf("n=%d held=%d: an arrival changed the earlier snapshot", n, s.Count())
			}
			prev = sum
		}
	}
}
