package netem

import (
	"testing"

	"bulletprime/internal/sim"
)

// giantFill builds the benchmark repository's churn-netem load as it stands
// mid-run, on the dense clustered topology it runs on: 2000 nodes in 80
// clusters of 25, per cluster 37 intra-cluster transfers, and 2000 long
// cross-cluster flows between random nodes that tie the clusters into one
// component; every flow touching a crashed node (every eighth) is gone, which
// leaves about 3.7 k flows. It returns the flows of the largest component.
func giantFill(tb testing.TB) (*sim.Engine, *Network, []*Flow) {
	const n, clusterSize, perCluster, cross = 2000, 25, 37, 2000
	rng := sim.NewRNG(1)
	topo := NewTopology(n)
	topo.SetUniformAccess(Mbps(6), Mbps(6), MS(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			src, dst := NodeID(i), NodeID(j)
			if i/clusterSize == j/clusterSize {
				topo.SetCoreBW(src, dst, Mbps(10))
				topo.SetCoreDelay(src, dst, MS(rng.Uniform(1, 5)))
			} else {
				topo.SetCoreBW(src, dst, Mbps(1.5))
				topo.SetCoreDelay(src, dst, MS(rng.Uniform(20, 200)))
				topo.SetCoreLoss(src, dst, rng.Uniform(0, 0.02))
			}
		}
	}
	eng := sim.NewEngine()
	net := New(eng, topo, rng.Stream("net"))
	crashed := func(id NodeID) bool { return id%8 == 7 }
	open := func(src, dst NodeID) {
		if !crashed(src) && !crashed(dst) {
			net.NewFlow(src, dst).Start(1e15, nil)
		}
	}
	for c := 0; c < n/clusterSize; c++ {
		base := c * clusterSize
		for k := 0; k < perCluster; k++ {
			src := base + rng.Intn(clusterSize)
			dst := base + rng.Intn(clusterSize)
			if src == dst {
				dst = base + (dst-base+1)%clusterSize
			}
			open(NodeID(src), NodeID(dst))
		}
	}
	for k := 0; k < cross; k++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src/clusterSize == dst/clusterSize {
			dst = (dst + clusterSize) % n
		}
		open(NodeID(src), NodeID(dst))
	}
	eng.RunUntil(100) // past slow start: nothing re-dirties itself

	var giant []*Flow
	for i := range net.part.comps {
		if flows := net.part.comps[i].flows; len(flows) > len(giant) {
			giant = flows
		}
	}
	if len(giant) < 3000 {
		tb.Fatalf("largest component holds %d of %d flows, want one giant component", len(giant), net.part.total)
	}
	return eng, net, append([]*Flow(nil), giant...)
}

// BenchmarkWaterfillGiant measures a refill where waterfill is the whole
// cost: one ≈ 3.7 k-flow component (see giantFill); every recomputation sees
// one of its flows finished and the flow that finished an interval earlier
// started again, so the component is re-materialised and filled afresh each
// time, as it is at almost every recompute of fig5-dynamic. (churn-netem is
// not like that: at seed 1, 82 % of its refilled rates are in components no
// flow left or joined since their last fill, and 68 % are refilled from an
// unchanged input; BenchmarkRefillUnchanged is that case.)
func BenchmarkWaterfillGiant(b *testing.B) {
	eng, net, flows := giantFill(b)
	churn := benchChurn(b, eng, net, flows)
	for i := 0; i < 200; i++ {
		churn(i) // let every scratch slice reach its steady size
	}
	recomputed, armed := net.FlowRatesRecomputed, net.CompletionsArmed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
	b.ReportMetric(float64(net.FlowRatesRecomputed-recomputed)/float64(b.N), "flows/recompute")
	b.ReportMetric(float64(net.CompletionsArmed-armed)/float64(b.N), "armed/recompute")
}

// BenchmarkRefillUnchanged measures a refill that reuses its fill
// (DESIGN.md §3.4): on giantFill's ≈ 3.7 k-flow component, every
// recomputation sees one flow finish a segment and start the next inside the
// interval, which dirties the component but moves nothing its fill reads.
// What is left is advancing and sampling every flow and arming completions.
func BenchmarkRefillUnchanged(b *testing.B) {
	eng, net, flows := giantFill(b)
	step := func(i int) {
		f := flows[(i*7919)%len(flows)]
		f.completion.Cancel()
		f.remaining = 0
		f.complete()
		f.Start(1e15, nil)
		before := net.Recomputes
		eng.RunUntil(eng.Now() + sim.Time(DefaultRecomputeInterval))
		if net.Recomputes != before+1 {
			b.Fatalf("%d recomputations in one interval, want 1", net.Recomputes-before)
		}
	}
	for i := 0; i < 200; i++ {
		step(i) // let every scratch slice reach its steady size
	}
	reused := net.FillsReused
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.ReportMetric(float64(net.FillsReused-reused)/float64(b.N), "reused/recompute")
}
