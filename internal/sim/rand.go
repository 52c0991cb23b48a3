package sim

import "math/rand"

// RNG wraps math/rand with a stable interface and named substreams so each
// subsystem (topology, protocol decisions, loss draws, dynamics) draws from
// an independent deterministic stream. This keeps an experiment's random
// topology identical across protocol variants: the same master seed yields
// the same network for Bullet', BitTorrent, etc., which is how the paper's
// "identical conditions" comparisons are made reproducible here.
type RNG struct {
	*rand.Rand
	seed int64
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed this generator was created with.
func (r *RNG) Seed() int64 { return r.seed }

// Stream derives an independent generator for a named subsystem. The
// derivation is a stable hash of the parent seed and the name, so adding a
// new stream never perturbs existing ones.
func (r *RNG) Stream(name string) *RNG {
	h := uint64(r.seed)
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 1099511628211 // FNV-1a step
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return NewRNG(int64(h))
}

// Uniform returns a float64 uniformly distributed in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	// The conversion rounds the product before the sum on every CPU; without
	// it arm64, ppc64le, s390x and riscv64 fuse the two into one rounding and
	// every draw — and every digest recorded on amd64 — could differ in the
	// last bit.
	return lo + float64((hi-lo)*r.Float64())
}

// Pick returns a uniformly random element index for a collection of size n.
// It panics if n <= 0.
func (r *RNG) Pick(n int) int { return r.Intn(n) }

// SampleInts returns k distinct integers drawn uniformly from [0, n) in
// random order. If k >= n it returns a permutation of [0, n).
func (r *RNG) SampleInts(n, k int) []int {
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	return perm[:k]
}

// Shuffle is re-exported for clarity at call sites using the embedded Rand.
func (r *RNG) ShuffleInts(xs []int) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
