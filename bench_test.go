// Benchmarks regenerating every figure of the paper's evaluation section
// at reduced scale (BenchScale: 25 nodes, ~5 MB), plus ablations of
// Bullet's design choices and micro-benchmarks of the substrates.
//
// Each figure bench reports the median and worst download time of the
// headline system as custom metrics (median_s, worst_s), so regressions in
// protocol behaviour — not just Go-level performance — show up in bench
// diffs. Run the full-scale reproduction with cmd/bulletctl -scale 1.
package bulletprime_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"bulletprime"
	"bulletprime/internal/core"
	"bulletprime/internal/fountain"
	"bulletprime/internal/harness"
	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/rsyncx"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

const benchSeed = 42

// benchFigure regenerates one figure per iteration and attaches
// download-time metrics from its labelled series.
func benchFigure(b *testing.B, figure int, label string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunFigure(figure, harness.BenchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.Label != label || len(s.Points) == 0 {
				continue
			}
			b.ReportMetric(s.Points[len(s.Points)/2][0], "median_s")
			b.ReportMetric(s.Points[len(s.Points)-1][0], "worst_s")
			break
		}
	}
}

func BenchmarkFigure04StaticComparison(b *testing.B) {
	benchFigure(b, 4, "BulletPrime")
}

func BenchmarkFigure05DynamicComparison(b *testing.B) {
	benchFigure(b, 5, "BulletPrime")
}

func BenchmarkFigure06RequestStrategies(b *testing.B) {
	benchFigure(b, 6, "BulletPrime rarest-random request strategy")
}

func BenchmarkFigure07PeerSetStatic(b *testing.B) {
	benchFigure(b, 7, "BulletPrime, dyn. #senders,#receivers")
}

func BenchmarkFigure08PeerSetDynamic(b *testing.B) {
	benchFigure(b, 8, "BulletPrime, dyn. #senders,#receivers")
}

func BenchmarkFigure09ConstrainedAccess(b *testing.B) {
	benchFigure(b, 9, "BulletPrime, dyn. #senders,#receivers")
}

func BenchmarkFigure10OutstandingClean(b *testing.B) {
	benchFigure(b, 10, "BulletPrime , dyn  outst")
}

func BenchmarkFigure11OutstandingLossy(b *testing.B) {
	benchFigure(b, 11, "BulletPrime , dyn  outst")
}

func BenchmarkFigure12OutstandingCascade(b *testing.B) {
	benchFigure(b, 12, "BulletPrime , dyn  outst")
}

func BenchmarkFigure13InterArrival(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Figure13(harness.BenchScale, benchSeed)
		b.ReportMetric(res.LastBlocksOverage, "overage_s")
		b.ReportMetric(res.EncodingCost, "encode_cost_s")
	}
}

func BenchmarkFigure14PlanetLab(b *testing.B) {
	benchFigure(b, 14, "BulletPrime")
}

func BenchmarkFigure15Shotgun(b *testing.B) {
	benchFigure(b, 15, "Shotgun (Download + Update)")
}

// --- Ablations (DESIGN.md §4) ----------------------------------------------

// ablationSpec is Bullet' on the lossy ModelNet mesh with a config hook.
func ablationSpec(seed int64, mut func(*core.Config)) harness.SweepSpec {
	w := harness.Workload{FileBytes: harness.BenchScale.File * 100e6, BlockSize: 16 * 1024}
	return harness.SweepSpec{Label: "ablation", Seed: seed, TopoFn: harness.ModelNetTopology(25),
		Workload: w, CoreMut: mut, Deadline: 3600}
}

func ablationRun(seed int64, mut func(*core.Config)) *harness.RunResult {
	return harness.RunSpec(ablationSpec(seed, mut))
}

// BenchmarkAblationAlphaBeta compares the XCP-derived dynamic window
// against the naive fixed window of 5 (what BitTorrent hard-codes).
func BenchmarkAblationAlphaBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dyn := ablationRun(benchSeed, nil)
		fixed := ablationRun(benchSeed, func(c *core.Config) { c.StaticOutstanding = 5 })
		b.ReportMetric(dyn.CDF.Worst(), "dyn_worst_s")
		b.ReportMetric(fixed.CDF.Worst(), "fixed5_worst_s")
	}
}

// BenchmarkAblationStaticPeers quantifies adaptive peer-set sizing against
// the best and worst static sizes on the lossy mesh.
func BenchmarkAblationStaticPeers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dyn := ablationRun(benchSeed, nil)
		s6 := ablationRun(benchSeed, func(c *core.Config) { c.StaticPeers = 6 })
		s14 := ablationRun(benchSeed, func(c *core.Config) { c.StaticPeers = 14 })
		b.ReportMetric(dyn.CDF.Median(), "dyn_median_s")
		b.ReportMetric(s6.CDF.Median(), "s6_median_s")
		b.ReportMetric(s14.CDF.Median(), "s14_median_s")
	}
}

// BenchmarkAblationDiffClocking compares the paper's self-clocked diffs
// (§3.3.4) against fixed 5-second diff timers.
func BenchmarkAblationDiffClocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		selfClocked := ablationRun(benchSeed, nil)
		periodic := ablationRun(benchSeed, func(c *core.Config) { c.PeriodicDiffs = 5 })
		b.ReportMetric(selfClocked.CDF.Median(), "selfclock_median_s")
		b.ReportMetric(periodic.CDF.Median(), "periodic_median_s")
		b.ReportMetric(selfClocked.ControlOverhead()*100, "selfclock_ctl_pct")
		b.ReportMetric(periodic.ControlOverhead()*100, "periodic_ctl_pct")
	}
}

// BenchmarkAblationRequestStrategy isolates first-encountered vs
// rarest-random block selection.
func BenchmarkAblationRequestStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rr := ablationRun(benchSeed, func(c *core.Config) { c.Strategy = core.RarestRandom })
		fe := ablationRun(benchSeed, func(c *core.Config) { c.Strategy = core.FirstEncountered })
		b.ReportMetric(rr.CDF.Median(), "rarestrand_median_s")
		b.ReportMetric(fe.CDF.Median(), "first_median_s")
	}
}

// BenchmarkExtensionChurnResilience measures the mesh's failure tolerance
// (the paper's §1 motivation): median completion with and without 20% of
// control-tree leaves crashing mid-download.
func BenchmarkExtensionChurnResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		calm := ablationRun(benchSeed, nil)
		b.ReportMetric(calm.CDF.Median(), "calm_median_s")

		// Churn run: the same spec, with five leaves failing at t=15s. The
		// start hook steers here rather than observes: only it sees the
		// session, whose agents hold the control tree once it starts.
		churn := ablationSpec(benchSeed, nil)
		churn.Hooks = &harness.Hooks{OnStart: func(rig *harness.Rig, sys harness.System) {
			sess := sys.(*core.Session)
			rig.Eng.Schedule(15, func() {
				failed := 0
				for walk := []netem.NodeID{0}; len(walk) > 0 && failed < 5; walk = walk[1:] {
					kids := sess.Agent(walk[0]).ChildIDs()
					if walk[0] != 0 && len(kids) == 0 {
						rig.RT.Node(walk[0]).Fail()
						failed++
					}
					walk = append(walk, kids...)
				}
			})
		}}
		b.ReportMetric(harness.RunSpec(churn).CDF.Median(), "churn_median_s")
	}
}

// BenchmarkCodecComparison measures the LT (fountain) code's reception
// overhead on a 1 MiB payload — the ε of §2.2's "any k(1+ε) distinct
// blocks".
func BenchmarkCodecComparison(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(5)).Read(data)
	const bs = 4096
	for i := 0; i < b.N; i++ {
		enc := fountain.NewEncoder(data, bs, 9)
		dec := fountain.NewDecoder(enc.K(), bs, 9)
		for id := 0; !dec.Complete(); id++ {
			dec.Add(id, enc.Block(id))
		}
		b.ReportMetric(dec.Overhead()*100, "fountain_ovh_pct")
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkFountainEncode(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	enc := fountain.NewEncoder(data, 16*1024, 9)
	b.SetBytes(16 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.Block(i)
	}
}

func BenchmarkFountainDecode(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)
	enc := fountain.NewEncoder(data, 16*1024, 9)
	// Pre-generate ample encoded blocks outside the timed loop.
	var blocks [][]byte
	for i := 0; i < enc.K()*3; i++ {
		blocks = append(blocks, enc.Block(i))
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := fountain.NewDecoder(enc.K(), 16*1024, 9)
		for id, blk := range blocks {
			if dec.Complete() {
				break
			}
			dec.Add(id, blk)
		}
		if !dec.Complete() {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkRsyncDelta(b *testing.B) {
	old := make([]byte, 4<<20)
	rand.New(rand.NewSource(3)).Read(old)
	new := append([]byte(nil), old...)
	for i := 0; i < 16; i++ {
		new[i*200000] ^= 0xff
	}
	sig := rsyncx.ComputeSignature(old, 2048)
	b.SetBytes(4 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := rsyncx.ComputeDelta(sig, new)
		if len(d.Ops) == 0 {
			b.Fatal("empty delta")
		}
	}
}

func BenchmarkFairShareRecompute(b *testing.B) {
	eng := sim.NewEngine()
	n := 100
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(6), netem.Mbps(6), netem.MS(1))
	rng := sim.NewRNG(4)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(2))
				topo.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(rng.Uniform(5, 200)))
				topo.SetCoreLoss(netem.NodeID(i), netem.NodeID(j), rng.Uniform(0, 0.03))
			}
		}
	}
	net := netem.New(eng, topo, rng.Stream("net"))
	// 1000 concurrent long transfers: the fair-share load of a full-scale
	// Bullet' run.
	for k := 0; k < 1000; k++ {
		src := netem.NodeID(rng.Intn(n))
		dst := netem.NodeID(rng.Intn(n))
		if src == dst {
			dst = (dst + 1) % netem.NodeID(n)
		}
		net.NewFlow(src, dst).Start(1e12, nil)
	}
	eng.RunUntil(0.1)
	// Dirty every node, as a caller that cannot name what changed does.
	every := make([]netem.LinkRef, 0, 2*n)
	for i := 0; i < n; i++ {
		every = append(every, netem.OutAccess(netem.NodeID(i)), netem.InAccess(netem.NodeID(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.LinksChanged(every)
		eng.RunUntil(eng.Now() + 0.05)
	}
}

// fairShareDynamicScenario drives a churn-heavy dynamic workload on a
// clustered topology: n nodes in clusters of 10, ~1.5 concurrent transfers
// per node restarting on completion, and a bandwidth-halving/restore cycle
// hitting one cluster's links every 100 ms of virtual time. It returns the
// network so callers can read the recomputation counters.
func fairShareDynamicScenario(n int, horizon float64) (*sim.Engine, *netem.Network) {
	const clusterSize = 10
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(6), netem.Mbps(6), netem.MS(1))
	for c := 0; c < n/clusterSize; c++ {
		base := c * clusterSize
		for i := 0; i < clusterSize; i++ {
			for j := 0; j < clusterSize; j++ {
				if i != j {
					topo.SetCoreBW(netem.NodeID(base+i), netem.NodeID(base+j), netem.Mbps(4))
					topo.SetCoreDelay(netem.NodeID(base+i), netem.NodeID(base+j), netem.MS(rng.Uniform(5, 50)))
				}
			}
		}
	}
	net := netem.New(eng, topo, rng.Stream("net"))

	// Per cluster: 15 flows between random distinct members, each a stream
	// of ~5 s transfers restarting on completion (the churn source).
	for c := 0; c < n/clusterSize; c++ {
		base := c * clusterSize
		for k := 0; k < 15; k++ {
			src := netem.NodeID(base + rng.Intn(clusterSize))
			dst := netem.NodeID(base + rng.Intn(clusterSize))
			if src == dst {
				dst = netem.NodeID(base + (int(dst)-base+1)%clusterSize)
			}
			f := net.NewFlow(src, dst)
			size := rng.Uniform(1e6, 4e6)
			var restart func()
			restart = func() { f.Start(size, restart) }
			restart()
		}
	}

	// Dynamics: every 100 ms halve or restore the intra-cluster links of one
	// cluster, reporting each change per-link as the harness dynamics do.
	dynRng := rng.Stream("dyn")
	halved := make([]bool, n/clusterSize)
	var tick func()
	tick = func() {
		c := dynRng.Intn(n / clusterSize)
		base := c * clusterSize
		factor := 0.5
		if halved[c] {
			factor = 2.0
		}
		halved[c] = !halved[c]
		for i := 0; i < clusterSize; i++ {
			for j := 0; j < clusterSize; j++ {
				if i != j {
					src, dst := netem.NodeID(base+i), netem.NodeID(base+j)
					topo.SetCoreBW(src, dst, topo.CoreBW(src, dst)*factor)
					net.LinkChanged(src, dst)
				}
			}
		}
		eng.After(0.1, tick)
	}
	eng.After(0.1, tick)

	eng.RunUntil(sim.Time(horizon))
	return eng, net
}

// benchFairShareDynamic reports the cost of the 30-virtual-second scenario:
// wall time per op plus the recomputed-flow-rate counters that refilling
// only dirty components exists to shrink.
func benchFairShareDynamic(b *testing.B, n int) {
	var recomputed, skipped uint64
	for i := 0; i < b.N; i++ {
		_, net := fairShareDynamicScenario(n, 30)
		recomputed = net.FlowRatesRecomputed
		skipped = net.FlowRatesSkipped
	}
	b.ReportMetric(float64(recomputed), "rates_recomputed")
	b.ReportMetric(float64(skipped), "rates_skipped")
}

func BenchmarkFairShareIncremental100(b *testing.B)  { benchFairShareDynamic(b, 100) }
func BenchmarkFairShareIncremental500(b *testing.B)  { benchFairShareDynamic(b, 500) }
func BenchmarkFairShareIncremental1000(b *testing.B) { benchFairShareDynamic(b, 1000) }

// BenchmarkSweepParallel measures the parallel experiment driver against
// the same four seeds run back-to-back (BenchmarkSweepSequential).
func benchSweep(b *testing.B, parallel int) {
	sc := harness.TestScale
	w := harness.Workload{FileBytes: sc.File * 100e6, BlockSize: 16 * 1024}
	var specs []harness.SweepSpec
	for seed := int64(1); seed <= 4; seed++ {
		specs = append(specs, harness.SweepSpec{
			Label: "bench", Seed: seed, TopoFn: harness.ModelNetTopology(12),
			Workload: w, Deadline: 3600,
		})
	}
	for i := 0; i < b.N; i++ {
		pooled := &trace.CDF{}
		for _, r := range harness.Sweep(specs, parallel) {
			pooled.Merge(r.CDF)
		}
		if pooled.N() == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchSweep(b, 4) }

// --- Scenario-engine hot path ------------------------------------------------
//
// The scenario benchmarks drive the event-application + incremental-recompute
// path at 500-node scale on the clustered topology: TraceReplay500 applies a
// looped piecewise trace to a sampled 10% of the overlay's inbound core links
// every few virtual seconds; Churn500 crashes half the overlay's nodes (each
// holding live transfers) on exponential lifetimes. Both report the emulator's
// recomputation counters so scenario-tick cost regressions surface in bench
// diffs alongside wall time.

// scenarioBenchRig builds a 500-node clustered rig carrying ~1.5 restarting
// intra-cluster transfers per node, the fair-share load the scenario events
// must churn through.
func scenarioBenchRig(seed int64) *harness.Rig {
	return scenarioBenchRigN(seed, 500)
}

// benchProgram compiles a benchmark's scenario for an n-node rig.
func benchProgram(b *testing.B, s *scenario.Scenario, n int) *scenario.Program {
	p, err := s.Compile(n)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// scenarioBenchRigN is the same load at an arbitrary clustered scale.
func scenarioBenchRigN(seed int64, n int) *harness.Rig {
	const clusterSize = 25
	topo := harness.ClusteredTopology(n, clusterSize)(sim.NewRNG(seed).Stream("topo"))
	rig := harness.NewRig(topo, seed)
	rng := rig.Master.Stream("benchflows")
	for c := 0; c < n/clusterSize; c++ {
		base := c * clusterSize
		for k := 0; k < 3*clusterSize/2; k++ {
			src := netem.NodeID(base + rng.Intn(clusterSize))
			dst := netem.NodeID(base + rng.Intn(clusterSize))
			if src == dst {
				dst = netem.NodeID(base + (int(dst)-base+1)%clusterSize)
			}
			f := rig.Net.NewFlow(src, dst)
			size := rng.Uniform(1e6, 4e6)
			var restart func()
			restart = func() { f.Start(size, restart) }
			restart()
		}
	}
	return rig
}

func BenchmarkScenarioTraceReplay500(b *testing.B) {
	tr := &scenario.Trace{
		Times:    []float64{0, 3, 5, 9, 12},
		Values:   []float64{3000, 400, 3000, 1200, 3000},
		Duration: 15,
	}
	sc := scenario.New("bench-trace",
		scenario.TraceReplay(1, scenario.LinkSet{Frac: 0.1, Dir: "in"}, tr, true))
	prog := benchProgram(b, sc, 500)
	var recomputes, rates uint64
	for i := 0; i < b.N; i++ {
		rig := scenarioBenchRig(7)
		rig.ApplyScenario(prog)
		rig.Eng.RunUntil(30)
		recomputes = rig.Net.Recomputes
		rates = rig.Net.FlowRatesRecomputed
	}
	b.ReportMetric(float64(recomputes), "recomputes")
	b.ReportMetric(float64(rates), "rates_recomputed")
}

func BenchmarkScenarioChurn500(b *testing.B) {
	sc := scenario.New("bench-churn",
		scenario.Churn(0, 0.5, scenario.Dist{Kind: "exp", Mean: 10}))
	prog := benchProgram(b, sc, 500)
	var recomputes, rates uint64
	for i := 0; i < b.N; i++ {
		rig := scenarioBenchRig(8)
		// Protocol nodes with live connections, so every crash tears down
		// transport state and dirties fair-share components.
		for _, id := range rig.Members {
			rig.RT.NewNode(id)
		}
		connRng := rig.Master.Stream("benchconns")
		for k := 0; k < len(rig.Members); k++ {
			a := rig.Members[connRng.Intn(len(rig.Members))]
			c := rig.Members[connRng.Intn(len(rig.Members))]
			if a == c {
				c = rig.Members[(int(c)+1)%len(rig.Members)]
			}
			conn := rig.RT.Node(a).Dial(c)
			conn.Send(rig.RT.Node(a), proto.Message{Kind: 1, Size: 50e6})
		}
		rig.ApplyScenario(prog)
		rig.Eng.RunUntil(30)
		recomputes = rig.Net.Recomputes
		rates = rig.Net.FlowRatesRecomputed
	}
	b.ReportMetric(float64(recomputes), "recomputes")
	b.ReportMetric(float64(rates), "rates_recomputed")
}

// BenchmarkScenarioTraceReplay5000 is the Scale5000 cost probe: the same
// trace-replay dynamics as the 500-node benchmark at 10x the width (200
// clusters, ~7500 restarting transfers, a looping trace hitting 2% of
// inbound access links). One iteration includes building the dense
// 5000-node topology (~600 MB), which is why the benchmark reports
// wall_s_per_virtual explicitly: the event-core cost is the per-virtual-
// second slope, not the setup.
func BenchmarkScenarioTraceReplay5000(b *testing.B) {
	tr := &scenario.Trace{
		Times:    []float64{0, 3, 5, 9, 12},
		Values:   []float64{3000, 400, 3000, 1200, 3000},
		Duration: 15,
	}
	sc := scenario.New("bench-trace-5000",
		scenario.TraceReplay(1, scenario.LinkSet{Frac: 0.02, Dir: "in"}, tr, true))
	prog := benchProgram(b, sc, 5000)
	var executed uint64
	var wallPerVirtual float64
	for i := 0; i < b.N; i++ {
		rig := scenarioBenchRigN(7, 5000)
		rig.ApplyScenario(prog)
		start := time.Now()
		rig.Eng.RunUntil(10)
		wallPerVirtual = time.Since(start).Seconds() / 10
		executed = rig.Eng.Stats().Executed
	}
	b.ReportMetric(float64(executed), "events")
	b.ReportMetric(wallPerVirtual, "wall_s_per_virtual")
}

// --- Sharded engine (DESIGN.md §9) -------------------------------------------
//
// The sharded benchmarks run the Scale5000 sharded preset — 200 clusters of
// 25 on the O(N)-memory compact clustered topology, the scalefill reference
// workload with per-shard link churn — through the shard group's lockstep windows.
// The Serial variant drives all 8 shards cooperatively on one goroutine (the
// bit-exact oracle mode); the parallel variant runs one goroutine per shard.
// Both execute the identical event sequence, so their wall-time ratio is pure
// engine parallelism: in BENCH_PERF.json the parallel benchmark carries an
// ns_ceiling equal to the serial benchmark's recorded ns/op, which makes CI
// (GOMAXPROCS=4) assert that parallel execution is never slower than the
// sequential oracle.

// shardedBench5000 runs the Scale5000 sharded preset once per iteration with
// the given worker mode and reports the executed event count.
func shardedBench5000(b *testing.B, workers int) {
	var events uint64
	for i := 0; i < b.N; i++ {
		topo := harness.ClusteredTopologyCompact(5000, 25)(sim.NewRNG(7).Stream("topo"))
		rig, err := harness.NewShardedRig(topo, 7, 8)
		if err != nil {
			b.Fatal(err)
		}
		entry, ok := harness.LookupSystem("scalefill")
		if !ok {
			b.Fatal("scalefill not registered")
		}
		sys := entry.BuildSharded(harness.ShardBuildCtx{Rig: rig,
			Workload: harness.Workload{FileBytes: 1.5e6, BlockSize: 16 * 1024}})
		sys.Start()
		rig.Group.Run(12, workers, nil)
		if !sys.Complete() {
			b.Fatal("sharded preset did not complete by the 12 s horizon")
		}
		events = 0
		for _, s := range rig.Slots {
			events += s.Eng.Stats().Executed
		}
	}
	b.ReportMetric(float64(events), "events")
}

func BenchmarkShardedTraceReplay5000(b *testing.B)       { shardedBench5000(b, 0) }
func BenchmarkShardedTraceReplay5000Serial(b *testing.B) { shardedBench5000(b, 1) }

// --- Observer streaming overhead ----------------------------------------------

// benchFlowsSystem is a registered façade protocol that reproduces the
// scenario bench rig's load (restarting intra-cluster transfers) without a
// real dissemination session, so the observer's streaming path can be
// costed at 500-node scale inside bulletprime.New/Run.
type benchFlowsSystem struct {
	rig *harness.Rig
}

func (s *benchFlowsSystem) Start() {
	const clusterSize = 25
	n := len(s.rig.Members)
	rng := s.rig.Master.Stream("benchflows")
	for c := 0; c < n/clusterSize; c++ {
		base := c * clusterSize
		for k := 0; k < 3*clusterSize/2; k++ {
			src := netem.NodeID(base + rng.Intn(clusterSize))
			dst := netem.NodeID(base + rng.Intn(clusterSize))
			if src == dst {
				dst = netem.NodeID(base + (int(dst)-base+1)%clusterSize)
			}
			f := s.rig.Net.NewFlow(src, dst)
			size := rng.Uniform(1e6, 4e6)
			var restart func()
			restart = func() { f.Start(size, restart) }
			restart()
		}
	}
}

func (s *benchFlowsSystem) Complete() bool   { return false } // runs to the deadline
func (s *benchFlowsSystem) DoneAt() sim.Time { return 0 }

func init() {
	bulletprime.RegisterProtocol("bench-flows", func(ctx bulletprime.BuildContext) bulletprime.System {
		return &benchFlowsSystem{rig: ctx.Rig}
	})
}

// BenchmarkObserverOverhead costs the session API's streaming path against
// the unobserved one-shot Run on the 500-node clustered scenario
// benchmark: same topology, same looping trace replay, 30 virtual seconds,
// with the observed arm sampling every virtual second (per-node progress
// included) through a subscribed channel. It reports the wall-time ratio
// as overhead_ratio; the sampling hooks are read-only, so the target is
// ~1.05 (within ~5%), asserted here with headroom for CI timer noise.
func BenchmarkObserverOverhead(b *testing.B) {
	tr := &scenario.Trace{
		Times:    []float64{0, 3, 5, 9, 12},
		Values:   []float64{3000, 400, 3000, 1200, 3000},
		Duration: 15,
	}
	sc := scenario.New("bench-observer",
		scenario.TraceReplay(1, scenario.LinkSet{Frac: 0.1, Dir: "in"}, tr, true))
	cfg := bulletprime.RunConfig{
		Protocol:  "bench-flows",
		Network:   bulletprime.NetworkClustered,
		Nodes:     500,
		FileBytes: 1, // unused by bench-flows; must be positive
		Scenario:  (*bulletprime.Scenario)(sc),
		Seed:      7,
		Deadline:  30,
	}
	run := func(observe bool) time.Duration {
		start := time.Now()
		if !observe {
			if _, err := bulletprime.Run(cfg); err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
		exp, err := bulletprime.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		obs, err := exp.Subscribe(bulletprime.ObserverConfig{Every: 1, PerNode: true})
		if err != nil {
			b.Fatal(err)
		}
		samples := 0
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range obs.Samples() {
				samples++
			}
		}()
		if _, err := exp.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		<-drained
		if samples == 0 {
			b.Fatal("observed run produced no samples")
		}
		return time.Since(start)
	}
	minBase, minObs := time.Duration(0), time.Duration(0)
	for i := 0; i < b.N; i++ {
		// Alternate arms twice per iteration and keep the minima: the
		// robust wall-time estimate under scheduler noise.
		for pair := 0; pair < 2; pair++ {
			base := run(false)
			obs := run(true)
			if minBase == 0 || base < minBase {
				minBase = base
			}
			if minObs == 0 || obs < minObs {
				minObs = obs
			}
		}
	}
	ratio := float64(minObs) / float64(minBase)
	b.ReportMetric(ratio, "overhead_ratio")
	// The ceiling is deliberately loose: at -benchtime=1x on a shared CI
	// runner, wall-clock minima over two pairs still carry scheduler
	// noise. 1.5 catches a hook-cost regression an order above the ~1.04
	// this benchmark measures locally without turning noise into red CI.
	if ratio > 1.5 {
		b.Errorf("observer overhead ratio %.3f exceeds the 1.5 smoke ceiling (target ~1.05)", ratio)
	}
}

// BenchmarkObserverOverheadSharded costs the sharded engine's sampling path
// at Scale5000: the scalefill preset (200 compact clusters of 25, 8 shards,
// per-shard link churn) run unobserved in one Group.Run versus observed —
// horizon-stepped every virtual second with a subscribed channel draining
// the merged samples. The barrier walk re-partitions the lockstep
// windows without reordering events, so the wall-time ratio is pure
// sampling overhead; the same 1.5 smoke ceiling applies.
func BenchmarkObserverOverheadSharded(b *testing.B) {
	cfg := bulletprime.RunConfig{
		Protocol:  bulletprime.ProtocolScalefill,
		Network:   bulletprime.NetworkClusteredCompact,
		Nodes:     5000,
		FileBytes: 1.5e6,
		Seed:      7,
		Deadline:  12,
		Engine:    bulletprime.EngineSharded,
		Shards:    8,
	}
	run := func(observe bool) time.Duration {
		start := time.Now()
		if !observe {
			if _, err := bulletprime.Run(cfg); err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
		exp, err := bulletprime.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		obs, err := exp.Subscribe(bulletprime.ObserverConfig{Every: 1})
		if err != nil {
			b.Fatal(err)
		}
		samples := 0
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range obs.Samples() {
				samples++
			}
		}()
		if _, err := exp.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		<-drained
		if samples == 0 {
			b.Fatal("observed sharded run produced no samples")
		}
		return time.Since(start)
	}
	minBase, minObs := time.Duration(0), time.Duration(0)
	for i := 0; i < b.N; i++ {
		for pair := 0; pair < 2; pair++ {
			base := run(false)
			obs := run(true)
			if minBase == 0 || base < minBase {
				minBase = base
			}
			if minObs == 0 || obs < minObs {
				minObs = obs
			}
		}
	}
	ratio := float64(minObs) / float64(minBase)
	b.ReportMetric(ratio, "overhead_ratio")
	if ratio > 1.5 {
		b.Errorf("sharded observer overhead ratio %.3f exceeds the 1.5 smoke ceiling", ratio)
	}
}

// --- Live-streaming workload (DESIGN.md §11) ---------------------------------

// BenchmarkStream500 costs the streaming subsystem at 500-node scale: a
// 64 KiB/s live source on the lossless ModelNet mesh for 30 virtual seconds,
// with a drain window long enough for every viewer to finish playback, and
// the playout-buffer tracker accounting all 499 of them. It reports
// viewer-experience metrics alongside wall time, so stream regressions (lag
// growth, rebuffer storms) surface in bench diffs, and it feeds the perf
// gate through BENCH_PERF.json.
func BenchmarkStream500(b *testing.B) {
	var lagP50, rebuffers float64
	for i := 0; i < b.N; i++ {
		res := harness.RunSpec(harness.SweepSpec{
			Label:    "stream500",
			Seed:     benchSeed,
			TopoFn:   harness.LosslessModelNetTopology(500),
			Workload: harness.Workload{BlockSize: 16 * 1024},
			Deadline: 120,
			Stream:   &harness.StreamSpec{BitrateBps: 64 * 1024, Duration: 30, Drain: 45},
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Stream == nil || res.Stream.Live == 0 {
			b.Fatal("stream run reported no live viewers")
		}
		lagP50 = res.Stream.LagP50
		rebuffers = float64(res.Stream.Rebuffers)
	}
	b.ReportMetric(lagP50, "lag_p50_s")
	b.ReportMetric(rebuffers, "rebuffers")
}

func BenchmarkBlockStoreDiff(b *testing.B) {
	s := proto.NewBlockStore(6400)
	for i := 0; i < 6400; i += 2 {
		s.Add(i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, _ := s.ArrivalsSince(0)
		if len(ids) != 3200 {
			b.Fatal("wrong diff")
		}
	}
}

func BenchmarkSummaryUsefulTo(b *testing.B) {
	full := proto.NewBlockStore(6400)
	for i := 0; i < 6400; i++ {
		full.Add(i, 0)
	}
	half := proto.NewBlockStore(6400)
	for i := 0; i < 3200; i++ {
		half.Add(i*2, 0)
	}
	sum := proto.NewSummary(full)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sum.UsefulTo(half, 64) <= 0 {
			b.Fatal("useless")
		}
	}
}
