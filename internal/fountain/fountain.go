// Package fountain implements the rateless erasure codes of §2.2 — LT
// codes with the robust soliton degree distribution, per the publicly
// available specification the paper's authors implemented ([17],
// Maymounkov/Mazières; Luby, FOCS'02). The source encodes a k-block file
// into an unbounded stream of encoded blocks, each the XOR of a
// pseudo-randomly chosen set of source blocks; any (1+ε)k received encoded
// blocks reconstruct the file with high probability, with the paper
// observing ε ≈ 0.03–0.05 in practice and a fixed 4% accounting overhead in
// its experiments.
//
// Encoded block construction is deterministic in (seed, block id), so the
// decoder reconstructs each block's neighbor set locally from the id — no
// neighbor lists travel on the wire, matching real deployments.
package fountain

import (
	"fmt"
	"math"
	"math/rand"

	"bulletprime/internal/sim"
)

// Robust soliton parameters. C tunes the ripple size (smaller C trades
// robustness for lower reception overhead; 0.03 is the practical choice in
// the LT-code literature for file transfer), Delta is the decoder failure
// probability bound.
const (
	C     = 0.03
	Delta = 0.5
)

// Dist is a precomputed robust soliton degree distribution for a given k.
type Dist struct {
	K   int
	cdf []float64 // cdf[d-1] = P(degree <= d)
}

// NewDist builds the robust soliton distribution μ for k source blocks:
// μ(d) ∝ ρ(d) + τ(d) with the ideal soliton ρ and the robust spike τ.
func NewDist(k int) *Dist {
	if k < 1 {
		panic("fountain: k must be >= 1")
	}
	r := C * math.Log(float64(k)/Delta) * math.Sqrt(float64(k))
	if r < 1 {
		r = 1
	}
	spike := int(math.Round(float64(k) / r))
	if spike < 1 {
		spike = 1
	}
	if spike > k {
		spike = k
	}
	pdf := make([]float64, k+1) // pdf[d] for d in 1..k
	for d := 1; d <= k; d++ {
		// Ideal soliton.
		if d == 1 {
			pdf[d] = 1 / float64(k)
		} else {
			pdf[d] = 1 / (float64(d) * float64(d-1))
		}
		// Robust addition.
		switch {
		case d < spike:
			pdf[d] += r / (float64(d) * float64(k))
		case d == spike:
			pdf[d] += r * math.Log(r/Delta) / float64(k)
		}
	}
	var beta float64
	for d := 1; d <= k; d++ {
		beta += pdf[d]
	}
	cdf := make([]float64, k)
	acc := 0.0
	for d := 1; d <= k; d++ {
		acc += pdf[d] / beta
		cdf[d-1] = acc
	}
	cdf[k-1] = 1 // guard against rounding
	return &Dist{K: k, cdf: cdf}
}

// Sample draws a degree in [1, k].
func (ds *Dist) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(ds.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ds.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// DegreeOneProb returns P(degree == 1), the paper's point that unencoded
// blocks are generated "with relatively low probability (e.g. 0.01)".
func (ds *Dist) DegreeOneProb() float64 { return ds.cdf[0] }

// neighbors returns the source-block index set for encoded block id, drawn
// deterministically from (seed, id).
func neighbors(k int, seed int64, id int, dist *Dist) []int {
	mix := uint64(seed) ^ uint64(id)*0x9E3779B97F4A7C15
	rng := sim.NewRNG(int64(mix))
	d := dist.Sample(rng.Rand)
	if d > k {
		d = k
	}
	seen := make(map[int]bool, d)
	out := make([]int, 0, d)
	for len(out) < d {
		n := rng.Intn(k)
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// Encoder produces the rateless encoded-block stream for one file.
type Encoder struct {
	k         int
	blockSize int
	seed      int64
	dist      *Dist
	blocks    [][]byte
}

// NewEncoder splits data into blockSize source blocks (the last one
// zero-padded) and prepares the degree distribution.
func NewEncoder(data []byte, blockSize int, seed int64) *Encoder {
	if blockSize <= 0 {
		panic("fountain: blockSize must be positive")
	}
	k := (len(data) + blockSize - 1) / blockSize
	if k == 0 {
		k = 1
	}
	blocks := make([][]byte, k)
	for i := 0; i < k; i++ {
		b := make([]byte, blockSize)
		lo := i * blockSize
		if lo < len(data) {
			copy(b, data[lo:])
		}
		blocks[i] = b
	}
	return &Encoder{k: k, blockSize: blockSize, seed: seed, dist: NewDist(k), blocks: blocks}
}

// K returns the number of source blocks.
func (e *Encoder) K() int { return e.k }

// Block generates encoded block id: the XOR of its neighbor set.
func (e *Encoder) Block(id int) []byte {
	ns := neighbors(e.k, e.seed, id, e.dist)
	out := make([]byte, e.blockSize)
	for _, n := range ns {
		xorInto(out, e.blocks[n])
	}
	return out
}

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Decoder reconstructs the file via belief propagation: each received
// encoded block is a constraint; when a constraint's unresolved neighbor
// set shrinks to one, that source block is recovered and substituted into
// every other constraint mentioning it (the "ripple").
type Decoder struct {
	k         int
	blockSize int
	seed      int64
	dist      *Dist

	recovered  [][]byte // nil until recovered
	nRecovered int

	// pending constraints, indexed by the source blocks they await.
	waiting  map[int][]*constraint
	received int
	seen     map[int]bool
}

type constraint struct {
	data    []byte
	missing map[int]bool
	dead    bool
}

// NewDecoder prepares a decoder for k source blocks of blockSize bytes,
// with the encoder's seed.
func NewDecoder(k, blockSize int, seed int64) *Decoder {
	return &Decoder{
		k:         k,
		blockSize: blockSize,
		seed:      seed,
		dist:      NewDist(k),
		recovered: make([][]byte, k),
		waiting:   make(map[int][]*constraint),
		seen:      make(map[int]bool),
	}
}

// Received returns how many distinct encoded blocks have been added.
func (d *Decoder) Received() int { return d.received }

// Recovered returns how many source blocks have been reconstructed. The
// paper notes that with n received blocks only ~30% of content is typically
// reconstructable; progress is nonlinear until the ripple cascades.
func (d *Decoder) Recovered() int { return d.nRecovered }

// Complete reports whether every source block is recovered.
func (d *Decoder) Complete() bool { return d.nRecovered == d.k }

// Overhead returns received/k - 1 (the reception overhead ε); meaningful
// once Complete.
func (d *Decoder) Overhead() float64 { return float64(d.received)/float64(d.k) - 1 }

// Add ingests encoded block id. It returns true if the block advanced
// decoding (recovered at least one source block). Duplicate ids and
// payloads of the wrong size are rejected with an error.
func (d *Decoder) Add(id int, payload []byte) (progress bool, err error) {
	if len(payload) != d.blockSize {
		return false, fmt.Errorf("fountain: payload %d bytes, want %d", len(payload), d.blockSize)
	}
	if d.seen[id] {
		return false, nil
	}
	d.seen[id] = true
	d.received++
	if d.Complete() {
		return false, nil
	}

	c := &constraint{data: append([]byte(nil), payload...), missing: make(map[int]bool)}
	for _, n := range neighbors(d.k, d.seed, id, d.dist) {
		if d.recovered[n] != nil {
			xorInto(c.data, d.recovered[n])
		} else {
			c.missing[n] = true
		}
	}
	before := d.nRecovered
	d.processConstraint(c)
	return d.nRecovered > before, nil
}

// processConstraint files or resolves a constraint, cascading the ripple.
func (d *Decoder) processConstraint(c *constraint) {
	queue := []*constraint{c}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.dead {
			continue
		}
		switch len(cur.missing) {
		case 0:
			cur.dead = true // redundant
		case 1:
			var n int
			for m := range cur.missing {
				n = m
			}
			cur.dead = true
			if d.recovered[n] != nil {
				continue
			}
			d.recovered[n] = cur.data
			d.nRecovered++
			// Substitute into every constraint waiting on n.
			for _, w := range d.waiting[n] {
				if w.dead || !w.missing[n] {
					continue
				}
				xorInto(w.data, cur.data)
				delete(w.missing, n)
				if len(w.missing) <= 1 {
					queue = append(queue, w)
				}
			}
			delete(d.waiting, n)
		default:
			for n := range cur.missing {
				d.waiting[n] = append(d.waiting[n], cur)
			}
		}
	}
}

// Reconstruct returns the decoded file truncated to origLen bytes. It
// panics if decoding is incomplete.
func (d *Decoder) Reconstruct(origLen int) []byte {
	if !d.Complete() {
		panic("fountain: Reconstruct before Complete")
	}
	out := make([]byte, 0, d.k*d.blockSize)
	for _, b := range d.recovered {
		out = append(out, b...)
	}
	if origLen > len(out) {
		origLen = len(out)
	}
	return out[:origLen]
}
