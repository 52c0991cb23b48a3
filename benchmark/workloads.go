package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"

	"bulletprime"
	"bulletprime/internal/scenario"
)

// params sizes one workload. The full sizes are part of each workload's
// identity (README.md says why each was chosen); the smoke sizes are about a
// twentieth of them and exist for smoke_test.go and quick checks only.
type params struct {
	nodes     int
	fileBytes float64
	deadline  float64
	// duration and drain shape the stream-live broadcast.
	duration, drain float64
	// panel is how many independent runs one repetition makes, with seeds
	// derived from the repetition's by cellSeed.
	panel int
	// slice is the traced run's sim.advance span width in virtual seconds.
	slice float64
}

// workload is one closed, one-run-at-a-time job at a stated input size.
type workload struct {
	name        string
	full, smoke params
	// cells lists the façade runs of one repetition, in result order.
	cells func(p params, seed int64) []bulletprime.RunConfig
	// judge reduces one finished run to operations and the sample behind
	// the simulated statistic.
	judge func(cfg bulletprime.RunConfig, res *bulletprime.Result) cellStats
	// worst is the quantile of the pooled sample reported as sim_worst_s: 1,
	// the slowest, except where the maximum is one value's luck (README.md
	// has the numbers) and a regression bound on it would be a bound on
	// noise.
	worst float64
	// sweep runs the cells as one archived façade Sweep at Parallel 2,
	// followed by CompareArchived and ArchiveReport, instead of one
	// New+Run at a time.
	sweep bool
}

// sweepParallel is fig4-sweep's worker-pool size: fixed, not taken from the
// host, so two cells are always in flight at once.
const sweepParallel = 2

// sweepProtocols is fig4-sweep's protocol axis, in Sweep's protocol-major
// cell order.
var sweepProtocols = []bulletprime.Protocol{
	bulletprime.ProtocolBulletPrime,
	bulletprime.ProtocolBullet,
	bulletprime.ProtocolBitTorrent,
	bulletprime.ProtocolSplitStream,
}

var workloads = []*workload{
	{
		name:  "fig5-dynamic",
		full:  params{nodes: 100, fileBytes: 100e6, deadline: 10800, panel: 1, slice: 10},
		smoke: params{nodes: 20, fileBytes: 4e6, deadline: 10800, panel: 1, slice: 1},
		cells: func(p params, seed int64) []bulletprime.RunConfig {
			return panel(p, seed, bulletprime.RunConfig{
				Protocol:         bulletprime.ProtocolBulletPrime,
				Nodes:            p.nodes,
				FileBytes:        p.fileBytes,
				Network:          bulletprime.NetworkModelNet,
				DynamicBandwidth: true,
				Strategy:         bulletprime.RarestRandom,
				Deadline:         p.deadline,
			})
		},
		judge: judgeDownload,
		worst: 0.95,
	},
	{
		name:  "stream-live",
		full:  params{nodes: 500, duration: 30, drain: 45, panel: 16, slice: 2},
		smoke: params{nodes: 60, duration: 10, drain: 20, panel: 2, slice: 1},
		cells: func(p params, seed int64) []bulletprime.RunConfig {
			return panel(p, seed, bulletprime.RunConfig{
				Protocol: bulletprime.ProtocolBulletPrime,
				Nodes:    p.nodes,
				Network:  bulletprime.NetworkModelNetClean,
				Stream:   &bulletprime.StreamOptions{BitrateBps: 65536, Duration: p.duration, Drain: p.drain},
				Strategy: bulletprime.RarestRandom,
			})
		},
		judge: judgeStream,
		worst: 1,
	},
	{
		name:  "churn-netem",
		full:  params{nodes: 2000, deadline: 90, panel: 1, slice: 3},
		smoke: params{nodes: 200, deadline: 10, panel: 1, slice: 0.5},
		cells: func(p params, seed int64) []bulletprime.RunConfig {
			tr := &scenario.Trace{
				Times:    []float64{0, 3, 5, 9, 12},
				Values:   []float64{3000, 400, 3000, 1200, 3000},
				Duration: 15,
			}
			sc := scenario.New("bench-churn-netem",
				scenario.TraceReplay(1, scenario.LinkSet{Frac: 0.1, Dir: "in"}, tr, true),
				scenario.Churn(0, 0.5, scenario.Dist{Kind: "exp", Mean: 30}))
			return panel(p, seed, bulletprime.RunConfig{
				Protocol:  flowsProtocol,
				Nodes:     p.nodes,
				FileBytes: 1, // unused by bench-flows; must be positive
				Network:   bulletprime.NetworkClustered,
				Scenario:  sc,
				Deadline:  p.deadline,
			})
		},
		judge: judgeFlows,
		worst: 0.999,
	},
	{
		name:  "sharded-fill",
		full:  params{nodes: 50000, fileBytes: 15e6, deadline: 120, panel: 1, slice: 5},
		smoke: params{nodes: 2500, fileBytes: 1.5e6, deadline: 12, panel: 1, slice: 0.5},
		cells: func(p params, seed int64) []bulletprime.RunConfig {
			return panel(p, seed, bulletprime.RunConfig{
				Protocol:  bulletprime.ProtocolScalefill,
				Nodes:     p.nodes,
				FileBytes: p.fileBytes,
				Network:   compactPreset, // clustered-compact; flows.go says why not by name
				Engine:    bulletprime.EngineSharded,
				// Shard count is experiment identity: the preset's 8, never
				// derived from the host.
				Shards:   8,
				Deadline: p.deadline,
			})
		},
		judge: judgeDownload,
		worst: 1,
	},
	{
		name:  "fig4-sweep",
		full:  params{nodes: 60, fileBytes: 40e6, deadline: 3600, panel: 2, slice: 4},
		smoke: params{nodes: 12, fileBytes: 2e6, deadline: 3600, panel: 2, slice: 1},
		cells: func(p params, seed int64) []bulletprime.RunConfig {
			var out []bulletprime.RunConfig
			for _, proto := range sweepProtocols {
				for _, s := range sweepSeeds(p, seed) {
					cfg := sweepBase(p)
					cfg.Protocol = proto
					cfg.Seed = s
					out = append(out, cfg)
				}
			}
			return out
		},
		judge: judgeDownload,
		worst: 1,
		sweep: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) params(smoke bool) params {
	if smoke {
		return w.smoke
	}
	return w.full
}

// cellSeed derives the seed of a repetition's k-th run; run 0 keeps the
// repetition's seed verbatim.
func cellSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// panel expands base into p.panel runs with derived seeds.
func panel(p params, seed int64, base bulletprime.RunConfig) []bulletprime.RunConfig {
	out := make([]bulletprime.RunConfig, p.panel)
	for k := range out {
		out[k] = base
		out[k].Seed = cellSeed(seed, k)
	}
	return out
}

func sweepBase(p params) bulletprime.RunConfig {
	return bulletprime.RunConfig{
		Nodes:     p.nodes,
		FileBytes: p.fileBytes,
		Network:   bulletprime.NetworkModelNet,
		Strategy:  bulletprime.RarestRandom,
		Parallel:  sweepParallel,
		Deadline:  p.deadline,
	}
}

// sweepSeeds is fig4-sweep's seed axis: {S, S+1} at full size.
func sweepSeeds(p params, seed int64) []int64 {
	out := make([]int64, p.panel)
	for k := range out {
		out[k] = seed + int64(k)
	}
	return out
}

// cellStats is one finished run, reduced.
type cellStats struct {
	// ops is how many operations the run attempted: one receiver's
	// download, one viewer's stream, one node's fill, or (churn-netem) one
	// virtual second the run must reach.
	ops, failed int
	// sample is what the simulated statistic is taken over: completion
	// times, per-viewer lag, or completed-transfer durations.
	sample   []float64
	virtual  float64
	digest   [sha256.Size]byte
	problems []string
}

// cellOps is how many operations one run attempts: a virtual second each
// for the bench-flows load, otherwise one per node that must complete.
func cellOps(cfg bulletprime.RunConfig) int {
	switch {
	case cfg.Protocol == flowsProtocol:
		return int(cfg.Deadline)
	case cfg.Engine == bulletprime.EngineSharded:
		// Sharded workloads have no distinguished source.
		return cfg.Nodes
	}
	return cfg.Nodes - 1
}

// judgeCompletions checks that every receiver completed inside (0, limit]
// and returns the completion times in node order.
func judgeCompletions(cfg bulletprime.RunConfig, res *bulletprime.Result, limit float64) cellStats {
	st := cellStats{ops: cellOps(cfg), virtual: res.Elapsed}
	ids := make([]int, 0, len(res.CompletionTimes))
	for id := range res.CompletionTimes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	good := 0
	times := make([]float64, 0, len(ids))
	for _, id := range ids {
		t := res.CompletionTimes[id]
		times = append(times, t)
		if t > 0 && t <= limit {
			good++
		} else {
			st.problems = append(st.problems, fmt.Sprintf("node %d completed at %v, outside (0, %v]", id, t, limit))
		}
	}
	if good > st.ops {
		st.problems = append(st.problems, fmt.Sprintf("%d completions for %d receivers", good, st.ops))
		good = 0
	}
	st.failed = st.ops - good
	if st.failed > 0 && len(st.problems) == 0 {
		st.problems = append(st.problems, fmt.Sprintf("%d of %d receivers did not complete by %v", st.failed, st.ops, limit))
	}
	st.sample = times
	st.digest = digest(ids, times, res.Elapsed, res.ControlOverhead)
	return st
}

func judgeDownload(cfg bulletprime.RunConfig, res *bulletprime.Result) cellStats {
	return judgeCompletions(cfg, res, cfg.Deadline)
}

// judgeStream requires every viewer to receive the whole broadcast before
// the stream's end time and to be alive in the report; the simulated
// statistic is per-viewer lag behind the live edge at the end of the run.
func judgeStream(cfg bulletprime.RunConfig, res *bulletprime.Result) cellStats {
	st := judgeCompletions(cfg, res, cfg.Stream.Duration+cfg.Stream.Drain)
	if res.Stream == nil {
		st.failed = st.ops
		st.problems = append(st.problems, "streaming run returned no stream report")
		return st
	}
	if res.Stream.Live != st.ops {
		st.failed = st.ops
		st.problems = append(st.problems, fmt.Sprintf("%d live viewers, want %d", res.Stream.Live, st.ops))
	}
	lags := make([]float64, 0, len(res.Stream.Nodes))
	var rounded []float64
	for _, n := range res.Stream.Nodes {
		if !n.Dead {
			lags = append(lags, n.LagS)
			// The tracker's floats depend in the last place on when it was
			// sampled (a session samples every virtual second, the traced
			// run never), so the digest takes lag to the microsecond and
			// the counts exactly.
			rounded = append(rounded, math.Round(n.LagS*1e6), float64(n.Rebuffers), float64(n.Blocks))
		}
	}
	h := sha256.New()
	h.Write(st.digest[:])
	writeFloats(h, rounded)
	h.Sum(st.digest[:0])
	st.sample = lags
	return st
}

// judgeFlows counts the virtual seconds the load reached; the simulated
// statistic is the duration of every transfer that completed.
func judgeFlows(cfg bulletprime.RunConfig, res *bulletprime.Result) cellStats {
	st := cellStats{ops: cellOps(cfg), virtual: res.Elapsed}
	reached := int(math.Floor(res.Elapsed))
	if reached > st.ops {
		reached = st.ops
	}
	st.failed = st.ops - reached
	if st.failed > 0 {
		st.problems = append(st.problems, fmt.Sprintf("run ended at %v of %v virtual seconds", res.Elapsed, cfg.Deadline))
	}
	st.sample = lastFlows.durations
	if len(st.sample) == 0 {
		st.failed = st.ops
		st.problems = append(st.problems, "no transfer completed")
	}
	st.digest = digest(nil, st.sample, res.Elapsed, res.ControlOverhead)
	return st
}

func writeFloats(h interface{ Write([]byte) (int, error) }, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// digest hashes a run's simulated outcome bit for bit: per-node times in
// node order, the virtual end time, and control overhead.
func digest(ids []int, times []float64, elapsed, overhead float64) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	for _, id := range ids {
		binary.BigEndian.PutUint64(b[:], uint64(id))
		h.Write(b[:])
	}
	writeFloats(h, times)
	writeFloats(h, []float64{elapsed, overhead})
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// outcome is one repetition of a workload, reduced to what the output checks
// and the simulated metrics need.
type outcome struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	SimMedian float64  `json:"sim_median_s"`
	SimWorst  float64  `json:"sim_worst_s"`
	VirtualS  float64  `json:"virtual_s"`
	Digest    string   `json:"digest"`
	Problems  []string `json:"problems,omitempty"`
}

// nearestRank is the quantile rule of trace.CDF, which every figure and
// report in this repo uses.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// reduce folds a repetition's cells into its outcome. The simulated
// statistic pools every cell, except on the sweep, where it pools the Bullet'
// cells only (the other protocols are the comparison, not the subject).
func (w *workload) reduce(cfgs []bulletprime.RunConfig, cells []cellStats) outcome {
	var out outcome
	var pooled []float64
	h := sha256.New()
	for i, c := range cells {
		out.Attempted += c.ops
		out.Failed += c.failed
		out.VirtualS += c.virtual
		for _, p := range c.problems {
			out.Problems = append(out.Problems, fmt.Sprintf("cell %d: %s", i, p))
		}
		h.Write(c.digest[:])
		if !w.sweep || cfgs[i].Protocol == bulletprime.ProtocolBulletPrime {
			pooled = append(pooled, c.sample...)
		}
	}
	sort.Float64s(pooled)
	out.SimMedian = nearestRank(pooled, 0.5)
	out.SimWorst = nearestRank(pooled, w.worst)
	out.Digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// failAll marks every operation of a repetition failed: a run that errors,
// panics or breaks an invariant fails all of its operations.
func (o *outcome) failAll(why string) {
	o.Failed = o.Attempted
	o.Problems = append(o.Problems, why)
}

// ops is how many operations one repetition attempts, known before it runs
// so that a repetition that dies still counts them as failed.
func (w *workload) ops(p params) int {
	n := 0
	for _, cfg := range w.cells(p, 0) {
		n += cellOps(cfg)
	}
	return n
}

// setUp does everything a repetition does before its first event — topology,
// rig, scenario compile, system build, result teardown — by running every
// cell's session under a context that is already cancelled.
func (w *workload) setUp(p params, seed int64, tmp string) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if w.sweep {
		dir, err := os.MkdirTemp(tmp, "archive-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if _, err := bulletprime.OpenArchive(dir); err != nil {
			return err
		}
	}
	for _, cfg := range w.cells(p, seed) {
		exp, err := bulletprime.New(cfg)
		if err != nil {
			return err
		}
		if _, err := exp.Run(ctx); err != nil {
			return err
		}
	}
	return nil
}

// run makes the workload's façade calls for one repetition and checks their
// outputs. serial forces ShardWorkers to 1, the sharded engine's bit-exact
// oracle mode. tmp is a scratch directory for the sweep's archive.
func (w *workload) run(p params, seed int64, serial bool, tmp string) (outcome, error) {
	cfgs := w.cells(p, seed)
	if serial {
		for i := range cfgs {
			cfgs[i].ShardWorkers = 1
		}
	}
	if w.sweep {
		return w.runSweep(p, seed, cfgs, tmp)
	}
	cells := make([]cellStats, len(cfgs))
	for i, cfg := range cfgs {
		exp, err := bulletprime.New(cfg)
		if err != nil {
			return outcome{}, err
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			return outcome{}, err
		}
		cells[i] = w.judge(exp.Config(), res)
	}
	return w.reduce(cfgs, cells), nil
}

// runSweep is fig4-sweep's repetition: the traffic `bulletctl sweep` then
// `bulletctl report` generate.
func (w *workload) runSweep(p params, seed int64, cfgs []bulletprime.RunConfig, tmp string) (outcome, error) {
	dir, err := os.MkdirTemp(tmp, "archive-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	archive, err := bulletprime.OpenArchive(dir)
	if err != nil {
		return outcome{}, err
	}
	base := sweepBase(p)
	base.Archive = archive
	runs, err := bulletprime.Sweep(bulletprime.SweepConfig{
		Base: base, Seeds: sweepSeeds(p, seed), Protocols: sweepProtocols,
	})
	if err != nil {
		return outcome{}, err
	}
	if len(runs) != len(cfgs) {
		return outcome{}, fmt.Errorf("sweep returned %d runs, want %d", len(runs), len(cfgs))
	}
	cells := make([]cellStats, len(runs))
	ids := make(map[string]bool)
	byProto := make(map[bulletprime.Protocol][]*bulletprime.ArchivedRun)
	var all []*bulletprime.ArchivedRun
	for i, r := range runs {
		if r.Err != nil {
			return outcome{}, fmt.Errorf("cell %d: %w", i, r.Err)
		}
		cfg := cfgs[i]
		if r.Protocol != cfg.Protocol || r.Seed != cfg.Seed {
			return outcome{}, fmt.Errorf("cell %d is %s/seed %d, want %s/seed %d", i, r.Protocol, r.Seed, cfg.Protocol, cfg.Seed)
		}
		cells[i] = w.judge(cfg, r.Result)
		// Every cell must have landed in the archive under its own id and
		// read back verified and unchanged.
		problem := ""
		if r.RunID == "" || ids[r.RunID] {
			problem = fmt.Sprintf("archive id %q empty or repeated", r.RunID)
		} else if loaded, err := archive.Load(r.RunID); err != nil {
			problem = err.Error()
		} else if !sameTimes(loaded.CompletionTimes, r.Result.CompletionTimes) {
			problem = "archived completion times differ from the run's"
		} else {
			byProto[r.Protocol] = append(byProto[r.Protocol], loaded)
			all = append(all, loaded)
		}
		ids[r.RunID] = true
		if problem != "" {
			cells[i].problems = append(cells[i].problems, problem)
			cells[i].failed = cells[i].ops
		}
	}
	out := w.reduce(cfgs, cells)
	if len(all) == len(runs) {
		a, b := bulletprime.ProtocolBulletPrime, bulletprime.ProtocolBitTorrent
		cmp := bulletprime.CompareArchived(string(a), byProto[a], string(b), byProto[b])
		if cmp.Report() == "" || bulletprime.ArchiveReport(all) == "" {
			out.failAll("archive comparison or report came back empty")
		}
	}
	return out, nil
}

func sameTimes(a, b map[int]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, t := range a {
		if u, ok := b[id]; !ok || u != t {
			return false
		}
	}
	return true
}
