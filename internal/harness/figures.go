package harness

import (
	"fmt"
	"iter"

	"bulletprime/internal/core"
	"bulletprime/internal/netem"
	"bulletprime/internal/shotgun"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// The paper's evaluation figures as data: figureTable has one row per
// figure, and a row's series are labelled specs that RunSpec runs one after
// another. Render, bulletctl's -list and -all, the façade's RenderFigure,
// DESIGN.md §1 and the shape tests all read these rows. Labels follow the
// paper's legends.

// paperNodes/paperFile are the full-scale dimensions of the main ModelNet
// experiments: 100 nodes and a 100 MB file in 16 KB blocks.
const (
	paperNodes   = 100
	paperFile    = 100e6
	paperBlock   = 16 * 1024
	defaultDDL   = sim.Time(3600)
	dynamicDDL   = sim.Time(10800) // non-adaptive systems crawl under dynamics
	rsyncBaseDDL = sim.Time(36000)

	downloadTime = "download time (s)"
	wallTime     = "time (s)"
	nodeFraction = "fraction of nodes"
)

// figSeries is one curve of a figure: the spec whose run draws it, labelled
// (SweepSpec.Label) with the curve's legend entry.
type figSeries struct {
	spec SweepSpec
	// curves, when set, draws the run's curves instead of its completion
	// CDF: from what the spec's hooks saw (Figure 13), or from the result
	// (Figure 15's Shotgun).
	curves func(res *RunResult) []trace.Series
}

// figureRow is one figure of the paper's evaluation section.
type figureRow struct {
	num                   int
	desc                  string // one line: bulletctl -list, DESIGN.md §1 "Experiment"
	env                   string // DESIGN.md §1 "Environment"
	title, xlabel, ylabel string
	// series lists the figure's System runs in legend order; every run of one
	// figure shares the seed, hence the topology draw.
	series func(sc Scale, seed int64) []figSeries
	// fixed draws the curves that are not System runs, ahead of the others:
	// Figure 4's analytic reference lines, Figure 15's parallel rsync.
	fixed func(sc Scale, seed int64) []trace.Series
	// note is the row's post-processing: text Render appends to the figure.
	note func(fig *trace.Figure, sc Scale) string
}

var figureTable = []figureRow{
	{num: 4, desc: "systems comparison, static losses", env: "ModelNet mesh, static losses",
		title: "download time CDF, static losses", xlabel: downloadTime, ylabel: nodeFraction,
		fixed: func(sc Scale, _ int64) []trace.Series {
			return referenceLines(sc.nodes(paperNodes), modelNet(sc, 0).Workload)
		},
		series: func(sc Scale, seed int64) []figSeries { return perSystem(modelNet(sc, seed), paperSystems...) }},
	{num: 5, desc: "systems comparison, dynamic bandwidth", env: "ModelNet mesh + synthetic bandwidth changes (20 s period)",
		title: "download time CDF, dynamic bandwidth + losses", xlabel: downloadTime, ylabel: nodeFraction,
		series: func(sc Scale, seed int64) []figSeries {
			return perSystem(changing(modelNet(sc, seed)), paperSystems...)
		}},
	{num: 6, desc: "request strategies", env: "ModelNet mesh, static losses",
		title: "request strategy comparison, static losses", xlabel: downloadTime, ylabel: nodeFraction,
		series: func(sc Scale, seed int64) (out []figSeries) {
			for _, strat := range []core.RequestStrategy{core.RarestRandom, core.Random, core.FirstEncountered} {
				out = append(out, variant(modelNet(sc, seed), "BulletPrime "+strat.String()+" request strategy",
					func(c *core.Config) { c.Strategy = strat }))
			}
			return out
		}},
	{num: 7, desc: "peer set size, static losses", env: "ModelNet mesh, static losses",
		title: "peer set size, static losses", xlabel: downloadTime, ylabel: nodeFraction,
		series: func(sc Scale, seed int64) []figSeries { return peerSets(modelNet(sc, seed), 6, 10, 14) }},
	{num: 8, desc: "peer set size, dynamic bandwidth", env: "ModelNet mesh + synthetic bandwidth changes (20 s period)",
		title: "peer set size, dynamic bandwidth + losses", xlabel: downloadTime, ylabel: nodeFraction,
		series: func(sc Scale, seed int64) []figSeries { return peerSets(changing(modelNet(sc, seed)), 6, 10, 14) }},
	// More peers hurt behind a constrained access link.
	{num: 9, desc: "peer set size, constrained access", env: "800 Kbps access links, clean 10 Mbps core, 10 MB file",
		title: "peer set size, constrained access links (10 MB)", xlabel: downloadTime, ylabel: nodeFraction,
		series: func(sc Scale, seed int64) []figSeries {
			return peerSets(baseSpec(seed, ConstrainedAccessTopology(sc.nodes(paperNodes)), sc.file(10e6)), 10, 14)
		}},
	// Too few outstanding blocks cannot fill the bandwidth-delay product.
	{num: 10, desc: "outstanding requests, clean high-BDP", env: "25 nodes, clean 10 Mbps / 100 ms paths",
		title: "outstanding requests, clean high-BDP network", xlabel: downloadTime, ylabel: nodeFraction,
		series: func(sc Scale, seed int64) []figSeries { return outstanding(highBDP(sc, seed, 0), 0, 3, 6, 9, 15, 50) }},
	// TCP needs less data in flight under loss, so over-requesting (50)
	// backfires and the dynamic window wins.
	{num: 11, desc: "outstanding requests, lossy", env: "25 nodes, 10 Mbps / 100 ms paths, losses U[0,1.5%)",
		title: "outstanding requests under random losses", xlabel: downloadTime, ylabel: nodeFraction,
		series: func(sc Scale, seed int64) []figSeries { return outstanding(highBDP(sc, seed, 0.015), 0, 3, 6, 15, 50) }},
	// The 8th node's six 5 Mbps inbound links collapse to 100 Kbps one by
	// one; requesting too much from a suddenly slow sender strands blocks in
	// its queue. The paper's 25 s between drops shrinks with the file, so a
	// reduced-scale download is still in flight across the whole cascade.
	{num: 12, desc: "outstanding requests, cascading drops", env: "8-node cascade topology, one link drop per 25 s",
		title: "outstanding requests under cascading bandwidth drops", xlabel: downloadTime, ylabel: nodeFraction,
		series: func(sc Scale, seed int64) []figSeries {
			s := baseSpec(seed, CascadeTopology(), sc.file(paperFile))
			s.Dynamics = CascadeDynamics(25 * s.Workload.FileBytes / paperFile)
			return outstanding(s, 6, 9, 15, 50)
		}},
	{num: 13, desc: "block inter-arrival / last-block analysis", env: "ModelNet mesh, static losses",
		title: "block inter-arrival times (unencoded)", xlabel: "block arrival index", ylabel: "inter-arrival time (s)",
		series: interArrivals, note: lastBlockNote},
	{num: 14, desc: "PlanetLab systems comparison", env: "PlanetLab-like WAN: 41 heterogeneous nodes, 50 MB in 100 KB blocks",
		title: "PlanetLab download CDF (50 MB)", xlabel: wallTime, ylabel: nodeFraction,
		series: func(sc Scale, seed int64) []figSeries {
			s := baseSpec(seed, PlanetLabTopology(sc.nodes(41)), sc.file(50e6))
			s.Workload.BlockSize = 100 * 1024
			return perSystem(s, KindBulletPrime, KindSplitStream, KindBullet, KindBitTorrent)
		}},
	{num: 15, desc: "Shotgun vs parallel rsync", env: "PlanetLab-like WAN: 40 nodes, 24 MB of deltas",
		title: "Shotgun vs parallel rsync (24 MB of deltas)", xlabel: wallTime, ylabel: nodeFraction,
		fixed: parallelRsync, series: shotgunDownload},
}

// paperSystems are the four systems of Figures 4 and 5, in legend order.
var paperSystems = []ProtoKind{KindBulletPrime, KindBullet, KindBitTorrent, KindSplitStream}

// baseSpec is a static-conditions run of the default system (Bullet') on
// topo: 16 KB blocks, one hour to finish.
func baseSpec(seed int64, topo func(*sim.RNG) *netem.Topology, fileBytes float64) SweepSpec {
	return SweepSpec{Seed: seed, TopoFn: topo, Deadline: defaultDDL,
		Workload: Workload{FileBytes: fileBytes, BlockSize: paperBlock}}
}

// modelNet is the main ModelNet experiment at scale.
func modelNet(sc Scale, seed int64) SweepSpec {
	return baseSpec(seed, ModelNetTopology(sc.nodes(paperNodes)), sc.file(paperFile))
}

// highBDP is the 25-node 10 Mbps / 100 ms network of §4.5, with core losses
// U[0, lossHi).
func highBDP(sc Scale, seed int64, lossHi float64) SweepSpec {
	return baseSpec(seed, HighBDPTopology(sc.nodes(25), 0, lossHi), sc.file(paperFile))
}

// changing puts the synthetic bandwidth-change process (20 s period,
// cumulative halving) under a spec.
func changing(s SweepSpec) SweepSpec {
	s.Dynamics, s.Deadline = SyntheticBandwidthChanges(20), dynamicDDL
	return s
}

// variant is base under a legend label with its own Bullet' config hook.
func variant(base SweepSpec, label string, mut func(*core.Config)) figSeries {
	base.Label, base.CoreMut = label, mut
	return figSeries{spec: base}
}

// perSystem runs each kind under base's conditions.
func perSystem(base SweepSpec, kinds ...ProtoKind) []figSeries {
	var out []figSeries
	for _, k := range kinds {
		base.Label, base.System = k.String(), k.String()
		out = append(out, figSeries{spec: base})
	}
	return out
}

// peerSets runs Bullet' with static peer-set sizes, then the dynamic sizing
// policy.
func peerSets(base SweepSpec, sizes ...int) []figSeries {
	var out []figSeries
	for _, size := range sizes {
		out = append(out, variant(base, fmt.Sprintf("BulletPrime, %d senders, %d receivers", size, size),
			func(c *core.Config) { c.StaticPeers = size }))
	}
	return append(out, variant(base, "BulletPrime, dyn. #senders,#receivers", nil))
}

// outstanding sweeps fixed per-peer outstanding-request limits, then the
// dynamic controller, over 8 KB blocks (§4.5).
func outstanding(base SweepSpec, staticPeers int, fixed ...int) []figSeries {
	base.Workload.BlockSize = 8 * 1024
	mut := func(out int) func(*core.Config) {
		return func(c *core.Config) {
			c.StaticOutstanding, c.StaticPeers = out, staticPeers
			if staticPeers == 0 {
				c.MaxSendersCap = 5 // "up to 5 senders" (§4.5)
			}
		}
	}
	var out []figSeries
	for _, o := range fixed {
		out = append(out, variant(base, fmt.Sprintf("BulletPrime , %d    outst", o), mut(o)))
	}
	return append(out, variant(base, "BulletPrime , dyn  outst", mut(0)))
}

// updateBundle is Figure 15's network and workload: the 24 MB of deltas
// on a 40-node PlanetLab-like WAN.
func updateBundle(sc Scale, seed int64) SweepSpec {
	return baseSpec(seed, PlanetLabTopology(sc.nodes(40)), sc.file(24e6))
}

// shotgunDownload is Shotgun (§4.8): the bundle as one Bullet' download,
// drawn as downloaded and with each receiver's local replay of the deltas
// after it.
func shotgunDownload(sc Scale, seed int64) []figSeries {
	s := updateBundle(sc, seed)
	s.Label = "Shotgun (Download Only)"
	return []figSeries{{spec: s, curves: func(res *RunResult) []trace.Series {
		download := trace.FromCDF(s.Label, res.CDF)
		var updates []float64
		for _, p := range download.Points {
			updates = append(updates, shotgun.Replay(0, p[0]))
		}
		return []trace.Series{download, cdfSeries("Shotgun (Download + Update)", updates)}
	}}}
}

// parallelRsync is Figure 15's baseline: staggered rsync sessions from the
// central server, 2, 4, 8 and 16 at a time, each on a fresh rig of the
// Shotgun run's network. They are a flow model, not Systems, so the row
// draws them itself.
func parallelRsync(sc Scale, seed int64) []trace.Series {
	s := updateBundle(sc, seed)
	var out []trace.Series
	for _, parallel := range []int{2, 4, 8, 16} {
		rig := NewRig(s.TopoFn(sim.NewRNG(seed).Stream("topo")), seed)
		updates := shotgun.RunParallelRsync(rig.Eng, rig.Net, rig.Members, 0, s.Workload.FileBytes, parallel, rsyncBaseDDL)
		out = append(out, cdfSeries(fmt.Sprintf("%d parallel rsync", parallel), updates))
	}
	return out
}

// cdfSeries draws completion times as a CDF series.
func cdfSeries(label string, times []float64) trace.Series {
	c := &trace.CDF{}
	for _, t := range times {
		c.Add(t)
	}
	return trace.FromCDF(label, c)
}

// referenceLines computes the two baseline curves of Figure 4.
func referenceLines(n int, w Workload) []trace.Series {
	access := netem.Mbps(6)
	optimal := w.FileBytes / access
	// TCP feasible: protocol/framing overhead plus the slow-start ramp on
	// a representative ~200 ms RTT path before the pipe fills.
	const framing = 0.97 // 3% headers/acks
	rtt := 0.2
	rampRTTs := 0.0
	for rate := 2 * netem.MSS / rtt; rate < access; rate *= 2 {
		rampRTTs++
	}
	feasible := w.FileBytes/(access*framing) + float64(rampRTTs*rtt)

	vertical := func(label string, t float64) trace.Series {
		s := trace.Series{Label: label}
		for i := 1; i <= n-1; i++ {
			s.Points = append(s.Points, [2]float64{t, float64(i) / float64(n-1)})
		}
		return s
	}
	return []trace.Series{
		vertical("Physical Link Speed Possible", optimal),
		vertical("MACEDON  TCP feasible + startup", feasible),
	}
}

// Figures iterates the figure index in paper order: number and one-line
// description.
func Figures() iter.Seq2[int, string] {
	return func(yield func(int, string) bool) {
		for i := range figureTable {
			if !yield(figureTable[i].num, figureTable[i].desc) {
				return
			}
		}
	}
}

// figureRowFor finds a figure's row by number.
func figureRowFor(figure int) (*figureRow, error) {
	for i := range figureTable {
		if figureTable[i].num == figure {
			return &figureTable[i], nil
		}
	}
	return nil, fmt.Errorf("harness: unknown figure %d (have %d..%d)", figure,
		figureTable[0].num, figureTable[len(figureTable)-1].num)
}

// RunFigure runs one figure by number at the given scale: the row's fixed
// curves, then each of its specs through RunSpec in legend order.
func RunFigure(figure int, sc Scale, seed int64) (*trace.Figure, error) {
	row, err := figureRowFor(figure)
	if err != nil {
		return nil, err
	}
	fig := &trace.Figure{Title: fmt.Sprintf("Figure %d: %s", row.num, row.title), XLabel: row.xlabel, YLabel: row.ylabel}
	if row.fixed != nil {
		fig.Series = row.fixed(sc, seed)
	}
	if row.series == nil {
		return fig, nil
	}
	for _, s := range row.series(sc, seed) {
		res := RunSpec(s.spec)
		if res.Err != nil {
			return nil, fmt.Errorf("figure %d, %q: %w", row.num, s.spec.Label, res.Err)
		}
		if s.curves != nil {
			fig.Series = append(fig.Series, s.curves(res)...)
		} else {
			fig.Series = append(fig.Series, trace.FromCDF(s.spec.Label, res.CDF))
		}
	}
	return fig, nil
}

// Render runs one figure by number at the given scale and returns its
// rendered text (data + summary), with the row's note appended.
func Render(figure int, sc Scale, seed int64) (string, error) {
	fig, err := RunFigure(figure, sc, seed)
	if err != nil {
		return "", err
	}
	out := fig.Summary() + fig.Render()
	if row, _ := figureRowFor(figure); row.note != nil { // RunFigure found the row
		out += row.note(fig, sc)
	}
	return out, nil
}
