// Package netem is a deterministic flow-level network emulator standing in
// for the ModelNet cluster used by the paper.
//
// The model: every node has an inbound and an outbound access link; every
// ordered pair of nodes is connected by a dedicated core link with its own
// bandwidth, one-way propagation delay, and random packet-loss probability
// (the paper's fully interconnected mesh topology, §4.1). Transport
// connections map to one Flow per direction. Active flows share link
// capacity max-min fairly, and each flow is additionally capped by
//
//   - its core link bandwidth,
//   - the Mathis TCP steady-state throughput for the pair's loss rate and
//     RTT (rate ≤ MSS·√(3/2) / (RTT·√p)), and
//   - a slow-start ramp while the connection is young.
//
// This reproduces the four network behaviours the paper's evaluation turns
// on — shared bottlenecks, loss-limited TCP throughput, head-of-line
// blocking of queued blocks, and mid-transfer bandwidth change — without
// simulating individual packets, which is what makes 100-node × 100 MB
// sweeps feasible on one machine.
package netem

import (
	"fmt"

	"bulletprime/internal/sim"
)

// NodeID identifies a node in the emulated network.
type NodeID int

// Mbps converts megabits-per-second to the bytes-per-second unit used
// throughout the emulator.
func Mbps(m float64) float64 { return m * 1e6 / 8 }

// Kbps converts kilobits-per-second to bytes-per-second.
func Kbps(k float64) float64 { return k * 1e3 / 8 }

// MS converts milliseconds to seconds.
func MS(ms float64) float64 { return ms / 1e3 }

// Topology describes the emulated network: N nodes, per-node access links,
// and a dedicated core link for every ordered pair. All bandwidths are in
// bytes/second, delays in seconds, losses as probabilities in [0, 1).
type Topology struct {
	N           int
	AccessIn    []float64 // inbound access bandwidth per node
	AccessOut   []float64 // outbound access bandwidth per node
	AccessDelay []float64 // one-way access link delay per node

	// Clusters, when non-nil, records each node's cluster index. Clustered
	// builders fill it; the sharded harness derives shard ownership from it
	// (shard = contiguous block of whole clusters).
	Clusters []int32

	// CrossLookahead is a lower bound on the end-to-end latency of any
	// inter-cluster interaction, in seconds. It is the window length of the
	// sharded engine: no event on one cluster can affect another cluster
	// sooner than this. Zero means "unknown" and disables sharding.
	CrossLookahead float64

	coreBW    []float64 // N*N, indexed [src*N+dst]
	coreDelay []float64
	coreLoss  []float64

	// gen is one write generation per destination node. SetCoreBW and
	// SetCoreLoss move their link's dst, SetCoreDelay both ends (an RTT
	// reads both directions), SetUniformAccess every node; a Flow samples
	// its path again only when its dst's has moved (DESIGN.md §3.2). Only a
	// node's own shard writes links into it, so shards need no lock. Writes
	// to AccessDelay elements do not move it: set access delays before
	// opening flows, or through SetUniformAccess.
	gen []uint64

	// compact, when non-nil, replaces the dense N*N core slices with an
	// O(N) procedural backend (hash-derived parameters plus per-cluster
	// mutation overlays). Dense slices are nil in that case.
	compact *compactCore
}

// NewTopology allocates a topology for n nodes with all-zero parameters.
func NewTopology(n int) *Topology {
	return &Topology{
		N:           n,
		AccessIn:    make([]float64, n),
		AccessOut:   make([]float64, n),
		AccessDelay: make([]float64, n),
		coreBW:      make([]float64, n*n),
		coreDelay:   make([]float64, n*n),
		coreLoss:    make([]float64, n*n),
		gen:         make([]uint64, n),
	}
}

func (t *Topology) idx(src, dst NodeID) int {
	if src < 0 || int(src) >= t.N || dst < 0 || int(dst) >= t.N {
		panic(pairRangeError{src, dst, t.N})
	}
	return int(src)*t.N + int(dst)
}

// pairRangeError is idx's panic value. Formatting the message in Error, off
// the accessors' path, is what lets idx inline into them: a fmt.Sprintf (or
// any call) in its body puts it over the inliner's budget.
type pairRangeError struct {
	src, dst NodeID
	n        int
}

func (e pairRangeError) Error() string {
	return fmt.Sprintf("netem: pair (%d,%d) out of range for %d nodes", e.src, e.dst, e.n)
}

// CoreBW returns the core-link bandwidth for the ordered pair src→dst.
func (t *Topology) CoreBW(src, dst NodeID) float64 {
	i := t.idx(src, dst)
	if t.compact != nil {
		return t.compact.bw(src, dst)
	}
	return t.coreBW[i]
}

// SetCoreBW sets the core-link bandwidth for the ordered pair src→dst.
func (t *Topology) SetCoreBW(src, dst NodeID, bw float64) {
	i := t.idx(src, dst)
	t.gen[dst]++
	if t.compact != nil {
		t.compact.set(src, dst, overlayBW, bw)
		return
	}
	t.coreBW[i] = bw
}

// LinkBW returns the bandwidth of the link l names: a core link, or one of a
// node's access links.
func (t *Topology) LinkBW(l LinkRef) float64 {
	switch {
	case l.Src < 0:
		return t.AccessIn[l.Dst]
	case l.Dst < 0:
		return t.AccessOut[l.Src]
	}
	return t.CoreBW(l.Src, l.Dst)
}

// SetLinkBW sets the bandwidth of the link l names.
func (t *Topology) SetLinkBW(l LinkRef, bw float64) {
	switch {
	case l.Src < 0:
		t.AccessIn[l.Dst] = bw
	case l.Dst < 0:
		t.AccessOut[l.Src] = bw
	default:
		t.SetCoreBW(l.Src, l.Dst, bw)
	}
}

// CoreLinkFixed reports whether the core link src→dst cannot be changed: on
// a compact topology, Set* on an inter-cluster link panics.
func (t *Topology) CoreLinkFixed(src, dst NodeID) bool {
	return t.compact != nil && t.compact.cluster(src) != t.compact.cluster(dst)
}

// CoreDelay returns the one-way core propagation delay for src→dst.
func (t *Topology) CoreDelay(src, dst NodeID) float64 {
	i := t.idx(src, dst)
	if t.compact != nil {
		return t.compact.delay(src, dst)
	}
	return t.coreDelay[i]
}

// SetCoreDelay sets the one-way core propagation delay for src→dst.
func (t *Topology) SetCoreDelay(src, dst NodeID, d float64) {
	i := t.idx(src, dst)
	t.gen[src]++
	t.gen[dst]++
	if t.compact != nil {
		t.compact.set(src, dst, overlayDelay, d)
		return
	}
	t.coreDelay[i] = d
}

// CoreLoss returns the random-loss probability on the core link src→dst.
func (t *Topology) CoreLoss(src, dst NodeID) float64 {
	i := t.idx(src, dst)
	if t.compact != nil {
		return t.compact.loss(src, dst)
	}
	return t.coreLoss[i]
}

// SetCoreLoss sets the random-loss probability on the core link src→dst.
func (t *Topology) SetCoreLoss(src, dst NodeID, p float64) {
	i := t.idx(src, dst)
	t.gen[dst]++
	if t.compact != nil {
		t.compact.set(src, dst, overlayLoss, p)
		return
	}
	t.coreLoss[i] = p
}

// CoreRows returns src's rows of the dense core matrices: the bandwidth,
// delay and loss of the core link src→dst at index dst. They are for a
// builder that writes the whole mesh in one pass. A write through them moves
// no write generation (gen), so no flow may be open yet: a run changes a
// link through SetCoreBW, SetCoreDelay or SetCoreLoss. It panics on a
// compact topology, which has no dense rows.
func (t *Topology) CoreRows(src NodeID) (bw, delay, loss []float64) {
	if t.compact != nil {
		panic("netem: CoreRows on a compact topology")
	}
	lo := t.idx(src, 0)
	hi := lo + t.N
	return t.coreBW[lo:hi:hi], t.coreDelay[lo:hi:hi], t.coreLoss[lo:hi:hi]
}

// SetUniformAccess configures every node with the same access parameters.
func (t *Topology) SetUniformAccess(in, out, delay float64) {
	for i := 0; i < t.N; i++ {
		t.gen[i]++
		t.AccessIn[i] = in
		t.AccessOut[i] = out
		t.AccessDelay[i] = delay
	}
}

// OneWayDelay returns the end-to-end propagation delay src→dst: both access
// links plus the core link.
func (t *Topology) OneWayDelay(src, dst NodeID) float64 {
	if src == dst {
		return 0
	}
	return t.AccessDelay[src] + t.CoreDelay(src, dst) + t.AccessDelay[dst]
}

// RTT returns the round-trip time between src and dst: the forward one-way
// delay plus the reverse one-way delay.
func (t *Topology) RTT(src, dst NodeID) float64 {
	return t.OneWayDelay(src, dst) + t.OneWayDelay(dst, src)
}

// ModelNetConfig holds the parameters of the paper's emulation topology
// (§4.1): a fully interconnected mesh with symmetric access links and
// randomly drawn per-core-link delay and loss.
type ModelNetConfig struct {
	N           int
	AccessBW    float64 // inbound and outbound access bandwidth
	AccessDelay float64
	CoreBW      float64
	CoreDelayLo float64 // core delay drawn uniformly from [lo, hi)
	CoreDelayHi float64
	CoreLossLo  float64 // core loss drawn uniformly from [lo, hi)
	CoreLossHi  float64
}

// PaperDefault returns the §4.1 configuration: 100 nodes, 6 Mbps access
// links with 1 ms delay, 2 Mbps core links with delay U[5 ms, 200 ms) and
// loss U[0, 3%).
func PaperDefault() ModelNetConfig {
	return ModelNetConfig{
		N:           100,
		AccessBW:    Mbps(6),
		AccessDelay: MS(1),
		CoreBW:      Mbps(2),
		CoreDelayLo: MS(5),
		CoreDelayHi: MS(200),
		CoreLossLo:  0,
		CoreLossHi:  0.03,
	}
}

// Build draws a concrete topology from the configuration using rng. The
// draw order is fixed, so a given seed always yields the same network: row
// by row, a delay then a loss for each ordered pair (i, j), i ≠ j.
func (c ModelNetConfig) Build(rng *sim.RNG) *Topology {
	t := NewTopology(c.N)
	t.SetUniformAccess(c.AccessBW, c.AccessBW, c.AccessDelay)
	for i := 0; i < c.N; i++ {
		bw, delay, loss := t.CoreRows(NodeID(i))
		for j := range bw {
			if j == i {
				continue
			}
			bw[j] = c.CoreBW
			delay[j] = rng.Uniform(c.CoreDelayLo, c.CoreDelayHi)
			loss[j] = rng.Uniform(c.CoreLossLo, c.CoreLossHi)
		}
	}
	return t
}
