package sim

import "math/bits"

// RNG is math/rand's generator with a stable interface and named
// substreams, so each subsystem (topology, protocol decisions, loss draws,
// dynamics) draws from an independent deterministic stream. This keeps an experiment's random
// topology identical across protocol variants: the same master seed yields
// the same network for Bullet', BitTorrent, etc., which is how the paper's
// "identical conditions" comparisons are made reproducible here.
//
// Every stream is math/rand's v1 stream for its seed, bit for bit
// (DESIGN.md §8, "Random streams"): the generator is math/rand's own
// additive lagged-Fibonacci source, held here so that seeding is a table of
// multiplies instead of 1,841 chained steps. Every method draws from that
// one source as math/rand's method of the same name does (Perm and Shuffle
// are copied from math/rand in rngperm.go), so any interleaving of calls
// matches rand.New(rand.NewSource(seed)).
type RNG struct {
	src  source
	seed int64
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	r := &RNG{seed: seed}
	r.src.Seed(seed)
	return r
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

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Float64 returns a pseudo-random number in [0, 1), as math/rand does.
func (r *RNG) Float64() float64 {
	for {
		// math/rand's Go 1 formula; a quotient that rounds up to 1 is drawn
		// again.
		if f := float64(r.src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a pseudo-random number in [0, n), as math/rand does. It
// panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		return int(r.src.int31n(int32(n)))
	}
	return int(r.src.int63n(int64(n)))
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

// Sampler returns a sampler whose draws are r.Intn(n) bit for bit. It works
// Intn's rejection bound and the modulus's reciprocal out once, so a loop
// drawing many indexes into one collection divides only here. It panics if
// n <= 0.
func (r *RNG) Sampler(n int) Sampler {
	if n <= 0 {
		panic("invalid argument to Sampler")
	}
	s := Sampler{src: &r.src, n: n}
	if n <= int32max {
		// A power of two rejects nothing (its bound is int32max) and its
		// remainder is Int31n's mask, so it needs no branch of its own.
		s.max = int32max - (1<<31)%uint32(n)
		s.m = ^uint64(0)/uint64(n) + 1
	}
	return s
}

// Sampler draws indexes in [0, n) for one n; see RNG.Sampler.
type Sampler struct {
	src *source
	n   int
	max uint32 // Int31n's rejection bound; 0 when n is above int32max
	m   uint64 // ⌈2⁶⁴/n⌉ mod 2⁶⁴, for Lemire's remainder by multiplication
}

// Draw returns the next index, the value r.Intn(n) would return.
func (s *Sampler) Draw() int {
	if s.max == 0 {
		return int(s.src.int63n(int64(s.n)))
	}
	v := uint32(s.src.int31())
	for v > s.max {
		v = uint32(s.src.int31())
	}
	// v mod n for 32-bit v and n: the low 64 bits of v·⌈2⁶⁴/n⌉ are the
	// fraction v/n − ⌊v/n⌋ in 64-bit fixed point, and their product with n
	// has the remainder in its high word (Lemire, Kaser and Kurz, "Faster
	// Remainder by Direct Computation", 2019).
	hi, _ := bits.Mul64(s.m*uint64(v), uint64(s.n))
	return int(hi)
}

// SampleInts returns k distinct integers drawn uniformly from [0, n) in
// random order. If k >= n it returns a permutation of [0, n).
func (r *RNG) SampleInts(n, k int) []int {
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	return perm[:k]
}

// ShuffleInts shuffles xs in place, as Shuffle(len(xs), swap) does.
func (r *RNG) ShuffleInts(xs []int) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	seedMul  = 48271 // the seeding step x ↦ 48271·x mod (2³¹−1)
	seedSkip = 20    // seeding steps math/rand discards before the first word
)

// source is math/rand's rngSource: an additive lagged-Fibonacci generator
// with lags 607 and 273, seeded from a Lehmer sequence XORed with
// rngCooked. Its stream equals rand.NewSource's for every seed.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// seedPow[i][j] is 48271^(seedSkip+3i+j+1) mod (2³¹−1): the multiplier
// that takes a seed to the Lehmer value math/rand's seeding loop shifts left
// by 40, 20 or 0 bits (j = 0, 1, 2) into word i.
var seedPow = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 0; k < seedSkip; k++ {
		x = mulMod31(x, seedMul)
	}
	for i := range p {
		for j := range p[i] {
			x = mulMod31(x, seedMul)
			p[i][j] = x
		}
	}
	return p
}()

// mulMod31 returns x·y mod (2³¹−1) for x, y < 2³¹. 2³¹ ≡ 1 modulo the
// Mersenne prime, so the product's high bits fold onto its low 31; the fold
// is below 2·(2³¹−1), and one subtract finishes it.
func mulMod31(x, y uint64) uint64 {
	p := x * y
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Seed sets the generator to math/rand's state for seed. math/rand steps
// x ↦ 48271·x mod (2³¹−1) from the reduced seed, so its k-th value is
// seed·48271ᵏ mod (2³¹−1): each word is three multiplies by seedPow, with
// no step waiting on the one before.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &seedPow[i]
		u := int64(mulMod31(x, p[0])) << 40
		u ^= int64(mulMod31(x, p[1])) << 20
		u ^= int64(mulMod31(x, p[2]))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *source) int31() int32 { return int32(s.Int63() >> 32) }

// int31n is math/rand's Rand.Int31n for 0 < n.
func (s *source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return s.int31() & (n - 1)
	}
	max := int32(int32max - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return v % n
}

// int63n is math/rand's Rand.Int63n for 0 < n.
func (s *source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64(rngMask - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}
