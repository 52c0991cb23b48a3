package netem

import (
	"math"
	"testing"

	"bulletprime/internal/sim"
)

// buildWithSetters is ModelNetConfig.Build as it was written before the
// one-pass builder: the same draws through the per-pair setters. It is the
// oracle TestBuildMatchesSetters holds Build to.
func buildWithSetters(c ModelNetConfig, rng *sim.RNG) *Topology {
	t := NewTopology(c.N)
	t.SetUniformAccess(c.AccessBW, c.AccessBW, c.AccessDelay)
	for i := 0; i < c.N; i++ {
		for j := 0; j < c.N; j++ {
			if i == j {
				continue
			}
			t.SetCoreBW(NodeID(i), NodeID(j), c.CoreBW)
			t.SetCoreDelay(NodeID(i), NodeID(j), rng.Uniform(c.CoreDelayLo, c.CoreDelayHi))
			t.SetCoreLoss(NodeID(i), NodeID(j), rng.Uniform(c.CoreLossLo, c.CoreLossHi))
		}
	}
	return t
}

// sameTopology reports the first parameter on which a and b differ, bit for
// bit, or "" when they are equal.
func sameTopology(a, b *Topology) string {
	if a.N != b.N {
		return "N"
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := 0; i < a.N; i++ {
		if !same(a.AccessIn[i], b.AccessIn[i]) || !same(a.AccessOut[i], b.AccessOut[i]) ||
			!same(a.AccessDelay[i], b.AccessDelay[i]) {
			return "access link of a node"
		}
		for j := 0; j < a.N; j++ {
			s, d := NodeID(i), NodeID(j)
			if !same(a.CoreBW(s, d), b.CoreBW(s, d)) || !same(a.CoreDelay(s, d), b.CoreDelay(s, d)) ||
				!same(a.CoreLoss(s, d), b.CoreLoss(s, d)) {
				return "core link of a pair"
			}
		}
	}
	return ""
}

// TestBuildMatchesSetters holds the one-pass ModelNet builder to the
// per-pair setters it replaced: every link bit for bit and the generator
// left in the same state. After the build every node's write generation is
// 1, SetUniformAccess's one move.
func TestBuildMatchesSetters(t *testing.T) {
	lossless := PaperDefault()
	lossless.CoreLossHi = 0
	for _, base := range []ModelNetConfig{PaperDefault(), lossless} {
		for _, n := range []int{1, 2, 37} {
			c := base
			c.N = n
			for seed := int64(1); seed <= 3; seed++ {
				gotRng, wantRng := sim.NewRNG(seed), sim.NewRNG(seed)
				got, want := c.Build(gotRng), buildWithSetters(c, wantRng)
				if diff := sameTopology(got, want); diff != "" {
					t.Fatalf("N=%d seed=%d: %s differs from the setters' build", n, seed, diff)
				}
				if gotRng.Int63() != wantRng.Int63() {
					t.Fatalf("N=%d seed=%d: Build drew a different number of values", n, seed)
				}
				for i, g := range got.gen {
					if g != 1 {
						t.Fatalf("N=%d: node %d's write generation is %d after the build, want 1", n, i, g)
					}
				}
			}
		}
	}
}

// BenchmarkModelNetBuild500 is one §4.1 topology at 500 nodes: 249,500
// ordered pairs, a delay and a loss draw each, written into the three dense
// core matrices.
func BenchmarkModelNetBuild500(b *testing.B) {
	c := PaperDefault()
	c.N = 500
	rng := sim.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Build(rng).N != 500 {
			b.Fatal("wrong size")
		}
	}
}
