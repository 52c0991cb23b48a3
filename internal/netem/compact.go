package netem

import "fmt"

// A dense Topology stores three float64s per ordered pair — fine at 5000
// nodes (~600 MB), hopeless at 50000 (~60 GB). compactCore replaces the
// dense slices with a procedural backend: core-link parameters are derived
// on demand from a stable hash of (seed, src, dst), so the topology costs
// O(N) memory regardless of pair count, and the same seed always yields the
// same network.
//
// Dynamics still need to mutate links. Mutations go into per-cluster
// overlay maps keyed by the pair index; a lookup checks the overlay first
// and falls back to the hash. Overlays exist only for intra-cluster links:
// sharded runs mutate links from per-shard dynamics, and keeping each
// overlay map touched by exactly one shard (its cluster's owner) is what
// makes concurrent mutation race-free without locks. Cross-cluster links
// are immutable — Set* on one panics.
type compactCore struct {
	n           int
	clusterSize int
	seed        int64

	intraBW                    float64
	intraDelayLo, intraDelayHi float64
	crossBW                    float64
	crossDelayLo, crossDelayHi float64
	crossLossHi                float64

	// overlay[param][cluster] maps pair index → overridden value. The outer
	// slices are allocated with the topology, so that a shard's first
	// mutation writes only its own cluster's entry; the maps are allocated
	// lazily on first mutation within a cluster.
	overlay [3][]map[int64]float64
}

// Overlay parameter indices.
const (
	overlayBW = iota
	overlayDelay
	overlayLoss
)

// pairHash derives a stable 64-bit hash for an ordered node pair
// (splitmix64 finalizer over seed and pair).
func pairHash(seed int64, src, dst NodeID) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(src)<<32 + uint64(dst) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to a float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

func (c *compactCore) cluster(i NodeID) int { return int(i) / c.clusterSize }

func (c *compactCore) key(src, dst NodeID) int64 {
	return int64(src)*int64(c.n) + int64(dst)
}

func (c *compactCore) lookup(src, dst NodeID, param int) (float64, bool) {
	v, ok := c.overlay[param][c.cluster(src)][c.key(src, dst)]
	return v, ok
}

func (c *compactCore) set(src, dst NodeID, param int, v float64) {
	cs, cd := c.cluster(src), c.cluster(dst)
	if cs != cd {
		// The guard for hand callers; a scenario is refused before it runs
		// (Topology.CoreLinkFixed).
		panic(fmt.Sprintf("netem: compact topology link %d→%d crosses clusters %d/%d; "+
			"inter-cluster links are immutable", src, dst, cs, cd))
	}
	m := c.overlay[param][cs]
	if m == nil {
		m = make(map[int64]float64)
		c.overlay[param][cs] = m
	}
	m[c.key(src, dst)] = v
}

func (c *compactCore) bw(src, dst NodeID) float64 {
	if v, ok := c.lookup(src, dst, overlayBW); ok {
		return v
	}
	if c.cluster(src) == c.cluster(dst) {
		return c.intraBW
	}
	return c.crossBW
}

func (c *compactCore) delay(src, dst NodeID) float64 {
	if v, ok := c.lookup(src, dst, overlayDelay); ok {
		return v
	}
	u := unit(pairHash(c.seed, src, dst))
	if c.cluster(src) == c.cluster(dst) {
		return c.intraDelayLo + float64((c.intraDelayHi-c.intraDelayLo)*u)
	}
	return c.crossDelayLo + float64((c.crossDelayHi-c.crossDelayLo)*u)
}

func (c *compactCore) loss(src, dst NodeID) float64 {
	if c.cluster(src) == c.cluster(dst) {
		return 0
	}
	if v, ok := c.lookup(src, dst, overlayLoss); ok {
		return v
	}
	// A second independent draw from the same pair hash.
	return c.crossLossHi * unit(pairHash(c.seed^0x5bf0_3635, src, dst))
}

// CompactClusteredTopology builds the clustered ModelNet-style topology in
// O(N) memory: n nodes in n/clusterSize clusters, 6 Mbps / 1 ms access
// links, 10 Mbps intra-cluster core links with delay U[1 ms, 5 ms), and
// 1.5 Mbps loss-prone inter-cluster links with delay U[20 ms, 200 ms) and
// loss U[0, 2%). The per-pair draws come from a hash of (seed, src, dst)
// rather than a sequential RNG, so parameters are computed on demand; the
// distributions match the dense clustered builder, the individual draws do
// not. n must divide evenly into clusters of clusterSize >= 2.
func CompactClusteredTopology(n, clusterSize int, seed int64) *Topology {
	if clusterSize < 2 {
		panic(fmt.Sprintf("netem: compact clustered topology needs clusterSize >= 2, got %d", clusterSize))
	}
	if n <= 0 || n%clusterSize != 0 {
		panic(fmt.Sprintf("netem: compact clustered topology needs n %% clusterSize == 0, got %d %% %d = %d",
			n, clusterSize, n%clusterSize))
	}
	t := &Topology{
		N:           n,
		AccessIn:    make([]float64, n),
		AccessOut:   make([]float64, n),
		AccessDelay: make([]float64, n),
		Clusters:    make([]int32, n),
		gen:         make([]uint64, n),
		compact: &compactCore{
			n:            n,
			clusterSize:  clusterSize,
			seed:         seed,
			intraBW:      Mbps(10),
			intraDelayLo: MS(1),
			intraDelayHi: MS(5),
			crossBW:      Mbps(1.5),
			crossDelayLo: MS(20),
			crossDelayHi: MS(200),
			crossLossHi:  0.02,
		},
	}
	for param := range t.compact.overlay {
		t.compact.overlay[param] = make([]map[int64]float64, n/clusterSize)
	}
	t.SetUniformAccess(Mbps(6), Mbps(6), MS(1))
	for i := 0; i < n; i++ {
		t.Clusters[i] = int32(i / clusterSize)
	}
	// Cheapest possible inter-cluster interaction: min cross core delay
	// plus both access delays.
	t.CrossLookahead = MS(20) + 2*MS(1)
	return t
}
