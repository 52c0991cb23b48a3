package harness

import (
	"fmt"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// Topology builders for the paper's experiment environments. Each returns a
// closure for SweepSpec.TopoFn so topology draws are reproducible per seed.

// Scale multiplies node counts and file sizes so the full paper-scale
// sweeps (100 nodes x 100 MB) can be shrunk for tests and benches without
// changing the experiment's structure.
type Scale struct {
	Nodes float64 // node-count multiplier
	File  float64 // file-size multiplier
}

// FullScale reproduces the paper's exact dimensions.
var FullScale = Scale{Nodes: 1, File: 1}

// BenchScale is the default reduced configuration for benchmarks: a quarter
// of the nodes and ~1/20 of the file still exercise every mechanism.
var BenchScale = Scale{Nodes: 0.25, File: 0.05}

// TestScale is the minimal configuration used by unit tests.
var TestScale = Scale{Nodes: 0.12, File: 0.01}

func (s Scale) nodes(full int) int {
	n := int(float64(float64(full)*s.Nodes) + 0.5)
	if n < 8 {
		n = 8
	}
	return n
}

func (s Scale) file(full float64) float64 {
	f := full * s.File
	if f < 512*1024 {
		f = 512 * 1024
	}
	return f
}

// ModelNetTopology is the §4.1 environment: a full mesh with 6 Mbps access
// links (1 ms), 2 Mbps core links, delay U[5,200) ms and loss U[0,3%) —
// the setting of Figures 4-8 and 13.
func ModelNetTopology(n int) func(*sim.RNG) *netem.Topology {
	return func(rng *sim.RNG) *netem.Topology {
		cfg := netem.PaperDefault()
		cfg.N = n
		return cfg.Build(rng)
	}
}

// LosslessModelNetTopology is the same mesh without random loss, for
// controlled sub-experiments.
func LosslessModelNetTopology(n int) func(*sim.RNG) *netem.Topology {
	return func(rng *sim.RNG) *netem.Topology {
		cfg := netem.PaperDefault()
		cfg.N = n
		cfg.CoreLossLo, cfg.CoreLossHi = 0, 0
		return cfg.Build(rng)
	}
}

// ConstrainedAccessTopology is the Figure 9 environment: ample core
// bandwidth (10 Mbps, 1 ms) with 800 Kbps access links and no loss, where
// extra peers hurt because maximizing TCP flows compete on the access link.
func ConstrainedAccessTopology(n int) func(*sim.RNG) *netem.Topology {
	return func(rng *sim.RNG) *netem.Topology {
		cfg := netem.ModelNetConfig{
			N:           n,
			AccessBW:    netem.Kbps(800),
			AccessDelay: netem.MS(1),
			CoreBW:      netem.Mbps(10),
			CoreDelayLo: netem.MS(1),
			CoreDelayHi: netem.MS(1.001),
		}
		return cfg.Build(rng)
	}
}

// HighBDPTopology is the Figure 10/11 environment: 25 participants on
// 10 Mbps, 100 ms links (a large bandwidth-delay product), with loss drawn
// from [lossLo, lossHi).
func HighBDPTopology(n int, lossLo, lossHi float64) func(*sim.RNG) *netem.Topology {
	return func(rng *sim.RNG) *netem.Topology {
		cfg := netem.ModelNetConfig{
			N:           n,
			AccessBW:    netem.Mbps(100), // access not the bottleneck
			AccessDelay: 0,
			CoreBW:      netem.Mbps(10),
			CoreDelayLo: netem.MS(50), // one-way; RTT = 2x = 100ms paths
			CoreDelayHi: netem.MS(50.001),
			CoreLossLo:  lossLo,
			CoreLossHi:  lossHi,
		}
		return cfg.Build(rng)
	}
}

// CascadeTopology is the Figure 12 environment: a source plus 6 peers on
// fast links (10 Mbps, 1 ms), and an 8th node reachable only over
// dedicated 5 Mbps, 100 ms links from the 6 peers; those links degrade
// over time via CascadeDynamics. Node 0 is the source, nodes 1..6 the
// peers, node 7 the constrained 8th node.
func CascadeTopology() func(*sim.RNG) *netem.Topology {
	return func(rng *sim.RNG) *netem.Topology {
		t := netem.NewTopology(8)
		t.SetUniformAccess(netem.Mbps(100), netem.Mbps(100), 0)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i == j {
					continue
				}
				t.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(10))
				t.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(1))
			}
		}
		// The 8th node's dedicated inbound links.
		for i := 1; i <= 6; i++ {
			t.SetCoreBW(netem.NodeID(i), 7, netem.Mbps(5))
			t.SetCoreDelay(netem.NodeID(i), 7, netem.MS(100))
			t.SetCoreDelay(7, netem.NodeID(i), netem.MS(100))
		}
		// The source does not feed node 7 directly ("only downloading
		// from the 6 peers"): no capacity on that link.
		t.SetCoreBW(0, 7, netem.Kbps(64))
		t.SetCoreDelay(0, 7, netem.MS(100))
		return t
	}
}

// Scale1000 runs the paper's experiments at 10x the node count; pair it
// with ClusteredTopology, which is built for that size.
var Scale1000 = Scale{Nodes: 10, File: 1}

// Scale5000 runs at 50x the paper's node count — the allocation-free event
// core's target scale. Pair it with ClusteredTopology (200 clusters of 25);
// note the dense topology matrices cost ~600 MB at this size, so one
// Scale5000 rig should be live at a time.
var Scale5000 = Scale{Nodes: 50, File: 1}

// Scale50000 is the sharded engine's target scale: 500x the paper's node
// count, 2000 clusters of 25. Pair it with ClusteredTopologyCompact — the
// dense matrices would cost ~60 GB at this size — and EngineSharded, which
// is what makes a run of this size finish.
var Scale50000 = Scale{Nodes: 500, File: 1}

// defaultClusterSize resolves a defaulted (<= 0) cluster size to 25, capped
// at n so small runs form one whole cluster — the same topology the old
// builder produced for n <= 25. Explicit sizes pass through untouched and
// face validateClustered as given.
func defaultClusterSize(n, clusterSize int) int {
	if clusterSize > 0 {
		return clusterSize
	}
	if n < 25 {
		return n
	}
	return 25
}

// validateClustered rejects degenerate cluster shapes up front: a cluster
// needs at least 2 nodes to contain a flow, and a lopsided final cluster
// (n not divisible by clusterSize) would silently skew both the workload
// and the shard balance. It panics because the builders' signature has no
// error to return; the façade, where a user's node count arrives, recovers
// the refusal into New's error.
func validateClustered(n, clusterSize int) {
	if clusterSize < 2 {
		panic(fmt.Sprintf("harness: clustered topology needs clusterSize >= 2, got %d", clusterSize))
	}
	if n <= 0 || n%clusterSize != 0 {
		panic(fmt.Sprintf("harness: clustered topology needs n %% clusterSize == 0, got %d %% %d = %d "+
			"(choose a node count that divides into whole clusters)", n, clusterSize, n%clusterSize))
	}
}

// ClusteredTopology is the large-scale environment for 1000-node sweeps: n
// nodes in clusters of exactly clusterSize (default 25 when <= 0), modelling
// co-located sites. Access links are 6 Mbps as in ModelNet; intra-cluster
// core links are fast and clean (10 Mbps, U[1,5) ms), inter-cluster links
// are the scarce resource (1.5 Mbps, U[20,200) ms, loss U[0,2%)). Traffic
// that stays inside a cluster shares no links with other clusters, which is
// also what makes the emulator's component-partitioned fair-share effective
// at this scale. n must divide into whole clusters; lopsided shapes panic.
func ClusteredTopology(n, clusterSize int) func(*sim.RNG) *netem.Topology {
	clusterSize = defaultClusterSize(n, clusterSize)
	validateClustered(n, clusterSize)
	return func(rng *sim.RNG) *netem.Topology {
		t := netem.NewTopology(n)
		t.SetUniformAccess(netem.Mbps(6), netem.Mbps(6), netem.MS(1))
		t.Clusters = make([]int32, n)
		// Cheapest cross-cluster interaction: 20 ms core floor + both
		// access delays. This is the sharded engine's lookahead.
		t.CrossLookahead = netem.MS(20) + 2*netem.MS(1)
		// Row by row in ascending dst, one draw order: the clusters before
		// i's, i's own (skipping i), then the clusters after.
		inter := func(bw, delay, loss []float64) {
			for j := range bw {
				bw[j] = netem.Mbps(1.5)
				delay[j] = netem.MS(rng.Uniform(20, 200))
				loss[j] = rng.Uniform(0, 0.02)
			}
		}
		for i := 0; i < n; i++ {
			t.Clusters[i] = int32(i / clusterSize)
			lo := i / clusterSize * clusterSize
			hi := lo + clusterSize
			bw, delay, loss := t.CoreRows(netem.NodeID(i))
			inter(bw[:lo], delay[:lo], loss[:lo])
			for j := lo; j < hi; j++ {
				if j != i {
					bw[j] = netem.Mbps(10)
					delay[j] = netem.MS(rng.Uniform(1, 5))
				}
			}
			inter(bw[hi:], delay[hi:], loss[hi:])
		}
		return t
	}
}

// ClusteredTopologyCompact is ClusteredTopology in O(n) memory: the same
// cluster structure and parameter distributions, with per-pair draws
// derived from a hash instead of a sequential RNG (so a 50000-node topology
// is built in milliseconds and a few megabytes). The rng seeds the hash;
// individual draws differ from the dense builder but the environment is
// statistically identical.
func ClusteredTopologyCompact(n, clusterSize int) func(*sim.RNG) *netem.Topology {
	clusterSize = defaultClusterSize(n, clusterSize)
	validateClustered(n, clusterSize)
	return func(rng *sim.RNG) *netem.Topology {
		return netem.CompactClusteredTopology(n, clusterSize, rng.Seed())
	}
}

// PlanetLabTopology approximates the paper's 41-node wide-area deployment:
// heterogeneous university-hosted nodes with access rates drawn from a
// spread of classes, transcontinental RTTs, and light background loss. The
// source is a well-provisioned node capped at 10 Mbps, matching the
// CoDeploy comparison in §5.
func PlanetLabTopology(n int) func(*sim.RNG) *netem.Topology {
	return func(rng *sim.RNG) *netem.Topology {
		t := netem.NewTopology(n)
		for i := 0; i < n; i++ {
			var bw float64
			switch {
			case i == 0:
				bw = netem.Mbps(10) // source cap
			case rng.Float64() < 0.2:
				bw = netem.Mbps(rng.Uniform(1.5, 4)) // loaded/limited sites
			default:
				bw = netem.Mbps(rng.Uniform(5, 20))
			}
			t.AccessIn[i] = bw
			t.AccessOut[i] = bw
			t.AccessDelay[i] = netem.MS(1)
		}
		for i := 0; i < n; i++ {
			bw, delay, loss := t.CoreRows(netem.NodeID(i))
			for j := range bw {
				if j == i {
					continue
				}
				bw[j] = netem.Mbps(50)
				delay[j] = netem.MS(rng.Uniform(10, 120))
				loss[j] = rng.Uniform(0, 0.008)
			}
		}
		return t
	}
}
