package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// samplerSizes are the collection sizes rngStep's same-n sampler draws
// over: each of Int31n's branches (n = 1, powers of two, sizes that reject
// up to half their draws) and Int63n's above 2³¹−1.
var samplerSizes = []int{1, 2, 3, 7, 64, 100, 6400, 1 << 20, 1<<30 + 1, 3 << 29, math.MaxInt32 - 1,
	math.MaxInt32, 1 << 31, 1<<31 + 1, 1<<40 + 7, 1<<62 + 1, 3 << 61}

// rngStep draws from got and want the same way — operation op with the
// parameter arg — and reports the first difference.
func rngStep(got *RNG, want *rand.Rand, op, arg byte) error {
	a := int(arg)
	same := func(name string, g, w any) error {
		if g != w {
			return fmt.Errorf("%s: got %v, want %v", name, g, w)
		}
		return nil
	}
	switch op % 16 {
	case 0:
		return same("Intn(1)", got.Intn(1), want.Intn(1))
	case 1:
		n := 1 << (a % 63)
		return same(fmt.Sprintf("Intn(%d)", n), got.Intn(n), want.Intn(n))
	case 2:
		return same("Intn(MaxInt32)", got.Intn(math.MaxInt32), want.Intn(math.MaxInt32))
	case 3:
		n := math.MaxInt32 + 1 + a*12345678901
		if a%4 == 0 {
			n = 1<<62 + a + 1 // Int63n rejects half its draws
		}
		return same(fmt.Sprintf("Intn(%d)", n), got.Intn(n), want.Intn(n))
	case 4:
		return same(fmt.Sprintf("Intn(%d)", a+1), got.Intn(a+1), want.Intn(a+1))
	case 5:
		n := (a + 1) * 1000003
		return same(fmt.Sprintf("Intn(%d)", n), got.Intn(n), want.Intn(n))
	case 6:
		return same("Float64", got.Float64(), want.Float64())
	case 7:
		lo, hi := -float64(a), float64(3*a+1)
		return same("Uniform", got.Uniform(lo, hi), lo+float64((hi-lo)*want.Float64()))
	case 8:
		return same("Pick", got.Pick(a+1), want.Intn(a+1))
	case 9:
		if g, w := got.Perm(a%40), want.Perm(a%40); !slices.Equal(g, w) {
			return fmt.Errorf("Perm(%d): got %v, want %v", a%40, g, w)
		}
	case 10:
		g, w := make([]int, a%40), make([]int, a%40)
		got.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i]; g[i] += j })
		want.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i]; w[i] += j })
		if !slices.Equal(g, w) {
			return fmt.Errorf("Shuffle(%d): got %v, want %v", len(g), g, w)
		}
	case 11:
		n, k := a%40+1, a%7
		if g, w := got.SampleInts(n, k), want.Perm(n)[:min(k, n)]; !slices.Equal(g, w) {
			return fmt.Errorf("SampleInts(%d, %d): got %v, want %v", n, k, g, w)
		}
	case 12:
		g, w := make([]int, a%40), make([]int, a%40)
		for i := range g {
			g[i], w[i] = i, i
		}
		got.ShuffleInts(g)
		want.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		if !slices.Equal(g, w) {
			return fmt.Errorf("ShuffleInts(%d): got %v, want %v", len(g), g, w)
		}
	case 13:
		n := samplerSizes[a%len(samplerSizes)]
		s := got.Sampler(n)
		for k := 0; k < 1+a%70; k++ {
			if err := same(fmt.Sprintf("Sampler(%d) draw %d", n, k), s.Draw(), want.Intn(n)); err != nil {
				return err
			}
		}
	case 14:
		return same("Int63", got.Int63(), want.Int63())
	case 15:
		// A burst long enough to wrap the 607-word register.
		for k := 0; k < 4*a; k++ {
			if err := same(fmt.Sprintf("Int63 burst %d", k), got.Int63(), want.Int63()); err != nil {
				return err
			}
		}
	}
	return nil
}

// rngMatches runs the (op, arg) pairs of ops against NewRNG(seed) and
// math/rand's generator for seed, and reports the first difference.
func rngMatches(seed int64, ops []byte) error {
	got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
	if got.Seed() != seed {
		return fmt.Errorf("Seed() = %d", got.Seed())
	}
	for i := 0; i+1 < len(ops); i += 2 {
		if err := rngStep(got, want, ops[i], ops[i+1]); err != nil {
			return fmt.Errorf("seed %d, step %d: %w", seed, i/2, err)
		}
	}
	// The streams still agree after the mix.
	for k := 0; k < 8; k++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			return fmt.Errorf("seed %d: Int63 %d after the mix: got %d, want %d", seed, k, g, w)
		}
	}
	return nil
}

// TestStreamsMatchMathRand holds every stream to math/rand's v1 stream for
// its seed, bit for bit, under an interleaved mix of every draw method:
// the seeds at the edges of the seed reduction (0, negatives, multiples of
// 2³¹−1, the int64 extremes), the seeds Stream derives for the names the
// run path uses, and arbitrary ones.
func TestStreamsMatchMathRand(t *testing.T) {
	const m = math.MaxInt32
	seeds := []int64{0, 1, -1, 2, m - 1, m, m + 1, -m, -m - 1, 2 * m, -3 * m, m << 32, -m << 32,
		89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, base := range []int64{1, 7, -3, math.MinInt64} {
		master := NewRNG(base)
		for i := 0; i < 60; i++ {
			seeds = append(seeds, master.Stream(fmt.Sprintf("peer-%d", i)).Seed(),
				master.Stream(fmt.Sprintf("ransub-%d", i)).Seed())
		}
		for _, name := range []string{"topo", "net", "bulletprime", "tree", "scenario/waves", ""} {
			seeds = append(seeds, master.Stream(name).Seed())
		}
	}
	pick := rand.New(rand.NewSource(54))
	for len(seeds) < 1200 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, pick.Int63()-pick.Int63())
		case 1:
			seeds = append(seeds, int64(pick.Intn(1<<20))*m+int64(pick.Intn(3))-1)
		default:
			seeds = append(seeds, int64(pick.Uint64()))
		}
	}
	ops := make([]byte, 2*40)
	for i, seed := range seeds {
		// Every op at least twice per seed, in an order and with parameters
		// that vary from seed to seed.
		for k := 0; k < len(ops); k += 2 {
			ops[k], ops[k+1] = byte(k/2), byte(pick.Intn(256))
		}
		pick.Shuffle(len(ops)/2, func(a, b int) {
			ops[2*a], ops[2*b] = ops[2*b], ops[2*a]
			ops[2*a+1], ops[2*b+1] = ops[2*b+1], ops[2*a+1]
		})
		if i%50 == 0 {
			ops = append(ops, 15, 255) // one 1,020-draw burst: the register wraps
		}
		if err := rngMatches(seed, ops); err != nil {
			t.Fatal(err)
		}
		ops = ops[:2*40]
	}
}

// FuzzRNGMatchesMathRand draws a fuzzed sequence of operations from a
// fuzzed seed and holds every value to math/rand's. ops is read as (op,
// parameter) byte pairs; rngStep lists the operations.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 0, 1, 31, 2, 0, 3, 1, 13, 2})
	f.Add(int64(math.MinInt64), []byte{6, 0, 7, 9, 9, 39, 10, 5, 11, 17, 12, 8, 13, 11})
	f.Add(int64(math.MaxInt32), []byte{15, 200, 13, 4, 9, 7, 10, 8, 12, 9, 14, 0})
	f.Add(int64(-89482311), []byte{13, 12, 13, 9, 5, 255, 4, 255, 8, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		if err := rngMatches(seed, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSamplerRefusesEmpty: a sampler over no elements panics as Intn(0)
// does, when it is made rather than at its first draw.
func TestSamplerRefusesEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Sampler(%d) did not panic", n)
				}
			}()
			NewRNG(1).Sampler(n)
		}()
	}
}

var rngSink *RNG

// TestNewRNGAllocatesOnce: a stream is one allocation, the RNG with its
// source inside it.
func TestNewRNGAllocatesOnce(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { rngSink = NewRNG(7) }); got != 1 {
		t.Fatalf("NewRNG allocates %v times, want 1", got)
	}
}
