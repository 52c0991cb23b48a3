package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bulletprime"
	"bulletprime/internal/harness"
	"bulletprime/internal/lab"
)

// mib converts bytes to the "MB" the memory metrics are printed in.
const mib = 1 << 20

// traced makes the workload's one traced repetition: the same cells as run,
// driven through harness.RunSpec under the span recorder while a CPU profile
// is held, then (sweep only) the lab calls and the cells again one at a time.
// It writes the spans to spanPath and returns the repetition's outcome, what
// the traced interval cost, and every per-layer metric this process can
// compute alone.
func (w *workload) traced(p params, seed int64, tmp, spanPath string) (out outcome, use usage, layer map[string]float64, err error) {
	cfgs := w.cells(p, seed)
	layer = map[string]float64{}
	tr := newTracer(fmt.Sprintf("%s/seed%d", w.name, seed))
	traces := make([]cellTrace, len(cfgs))
	errs := make([]error, len(cfgs))
	var labErr error
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return out, use, nil, err
	}
	use = measure(func() {
		root := tr.begin(0, w.name)
		workers := 1
		if w.sweep {
			workers = sweepParallel
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(cfgs); i = int(next.Add(1)) - 1 {
					traces[i], errs[i] = traceCell(tr, root, cfgs[i], p.slice)
				}
			}()
		}
		wg.Wait()
		if w.sweep && errors.Join(errs...) == nil {
			labErr = traceLab(tr, root, cfgs, traces, tmp)
		}
		tr.end(root, nil)
	})
	pprof.StopCPUProfile()
	if err := errors.Join(append(errs, labErr)...); err != nil {
		return out, use, nil, err
	}
	if err := tr.write(spanPath); err != nil {
		return out, use, nil, err
	}

	// The outcome, judged exactly as the façade run's is.
	cells := make([]cellStats, len(cfgs))
	var totals counters
	var dupBytes, dataBytes float64
	var lagP90, startup []float64
	for i, ct := range traces {
		cells[i] = w.judge(cfgs[i], ct.res)
		totals.add(ct.totals)
		dupBytes += float64(ct.duplicates) * ct.blockSize
		dataBytes += ct.dataBytes
		// Delivered data can never be less than what the receivers hold.
		if want := float64(cells[i].ops) * ct.contentBytes; cfgs[i].Protocol != flowsProtocol && ct.dataBytes < want {
			cells[i].failed = cells[i].ops
			cells[i].problems = append(cells[i].problems,
				fmt.Sprintf("delivered %.0f data bytes, fewer than the %.0f the receivers hold", ct.dataBytes, want))
		}
		if s := ct.res.Stream; s != nil {
			lagP90 = append(lagP90, s.LagP90)
			startup = append(startup, s.StartupP50)
			layer["stream.rebuffers"] += float64(s.Rebuffers)
		}
	}
	out = w.reduce(cfgs, cells)

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return out, use, nil, err
	}
	shares, cpuS := cpuShares(samples)
	for bucket, share := range shares {
		switch bucket {
		case bucketGC, bucketSched, bucketOther:
			layer[bucket+"_cpu_share"] = share
		default:
			layer[bucket+".cpu_share"] = share
		}
	}

	advance := tr.durations("sim.advance.")
	layer["harness.topology_s"] = sum(tr.durations("harness.topology"))
	layer["harness.build_s"] = sum(tr.durations("harness.build"))
	layer["harness.advance_s"] = sum(advance)
	layer["harness.result_s"] = sum(tr.durations("harness.result"))
	layer["scenario.compile_ms"] = sum(tr.durations("scenario.compile")) * 1e3
	layer["facade.overhead_s"] = sum(tr.durations("facade.new"))
	layer["trace.spans"] = float64(len(tr.spans))

	sort.Float64s(advance)
	layer["sim.events"] = float64(totals.events)
	layer["sim.compactions"] = float64(totals.compactions)
	layer["sim.ns_per_event"] = ratio(sum(advance)*1e9, float64(totals.events))
	layer["sim.slice_wall_p50_ms"] = nearestRank(advance, 0.5) * 1e3
	layer["sim.slice_wall_max_ms"] = nearestRank(advance, 1) * 1e3

	layer["netem.recomputes"] = float64(totals.recomputes)
	layer["netem.rates_recomputed"] = float64(totals.ratesRecomputed)
	layer["netem.rates_skipped"] = float64(totals.ratesSkipped)
	layer["netem.skip_ratio"] = ratio(float64(totals.ratesSkipped), float64(totals.ratesSkipped+totals.ratesRecomputed))
	layer["netem.us_per_recompute"] = ratio(shares["netem"]*cpuS*1e6, float64(totals.recomputes))
	layer["netem.bytes_served"] = totals.bytesServed

	layer["proto.messages"] = float64(totals.messages)
	layer["proto.control_bytes"] = totals.controlBytes
	layer["proto.data_bytes"] = totals.dataBytes
	layer["proto.control_overhead"] = ratio(totals.controlBytes, totals.controlBytes+totals.dataBytes)
	layer["proto.ns_per_message"] = ratio(shares["proto"]*cpuS*1e9, float64(totals.messages))

	layer["core.duplicate_ratio"] = ratio(dupBytes, dataBytes-dupBytes)
	layer["stream.lag_p90_s"] = median(lagP90)
	layer["stream.startup_p50_s"] = median(startup)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layer["go.alloc_mb"] = float64(use.Bytes) / mib
	layer["go.gc_cycles"] = float64(use.GCs)
	layer["go.gc_pause_ms"] = use.PauseMs
	layer["go.heap_peak_mb"] = float64(ms.HeapSys) / mib

	if w.sweep {
		layer["lab.put_ms"] = median(tr.durations("lab.put")) * 1e3
		layer["lab.load_ms"] = median(tr.durations("lab.load")) * 1e3
		layer["lab.claim_rtt_ms"] = median(tr.durations("lab.claim")) * 1e3
		layer["lab.compare_ms"] = sum(tr.durations("lab.compare")) * 1e3
		if err := w.cellsOneAtATime(cfgs, traces, layer); err != nil {
			return out, use, nil, err
		}
	}
	return out, use, layer, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cellsOneAtATime re-runs the sweep's cells one at a time, untraced, and
// reports per protocol the mean wall of one cell (its cost without a
// neighbour contending for cache and the collector) and the simulated median
// over its cells.
func (w *workload) cellsOneAtATime(cfgs []bulletprime.RunConfig, traces []cellTrace, layer map[string]float64) error {
	walls := map[bulletprime.Protocol][]float64{}
	times := map[bulletprime.Protocol][]float64{}
	discard := newTracer("")
	for i, cfg := range cfgs {
		spec, err := harnessSpec(discard, 0, cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		res := harness.RunSpec(spec)
		walls[cfg.Protocol] = append(walls[cfg.Protocol], time.Since(start).Seconds())
		if res.Err != nil {
			return res.Err
		}
		for _, t := range traces[i].res.CompletionTimes {
			times[cfg.Protocol] = append(times[cfg.Protocol], t)
		}
	}
	for proto, ws := range walls {
		sort.Float64s(times[proto])
		layer[string(proto)+".cell_wall_s"] = sum(ws) / float64(len(ws))
		layer[string(proto)+".sim_median_s"] = nearestRank(times[proto], 0.5)
	}
	return nil
}

// traceLab times the archive and farm calls a sweep's results go through:
// one lab.put and lab.load span per cell, one lab.compare span for the
// Bullet'-vs-BitTorrent comparison and the grouped report, and one lab.claim
// span per cell for a FarmClient's claim round trip to an in-process Farm
// behind an httptest server.
func traceLab(tr *tracer, root int, cfgs []bulletprime.RunConfig, traces []cellTrace, tmp string) error {
	dir, err := os.MkdirTemp(tmp, "archive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	archive, err := lab.Open(dir)
	if err != nil {
		return err
	}
	ids := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res := traces[i].res
		// The archive key hashes Config; any canonical encoding that tells
		// the cells apart serves, and the façade's own is unexported.
		config, err := json.Marshal(map[string]any{
			"protocol": cfg.Protocol, "network": cfg.Network, "nodes": cfg.Nodes,
			"file_bytes": cfg.FileBytes, "deadline": cfg.Deadline,
		})
		if err != nil {
			return err
		}
		run := &lab.Run{
			Meta: lab.Meta{
				Config: config, Seed: cfg.Seed,
				Protocol: string(cfg.Protocol), Network: string(cfg.Network),
				Nodes: cfg.Nodes, FileBytes: cfg.FileBytes,
				Finished: res.Finished, Elapsed: res.Elapsed, ControlOverhead: res.ControlOverhead,
			},
			CompletionTimes: res.CompletionTimes,
		}
		tr.timed(root, "lab.put", func() { ids[i], _, err = archive.Put(run) })
		if err != nil {
			return err
		}
	}
	byProto := map[bulletprime.Protocol][]*lab.Run{}
	var all []*lab.Run
	for i, id := range ids {
		var run *lab.Run
		tr.timed(root, "lab.load", func() { run, err = archive.Load(id) })
		if err != nil {
			return err
		}
		byProto[cfgs[i].Protocol] = append(byProto[cfgs[i].Protocol], run)
		all = append(all, run)
	}
	a, b := bulletprime.ProtocolBulletPrime, bulletprime.ProtocolBitTorrent
	tr.timed(root, "lab.compare", func() {
		lab.Compare(string(a), byProto[a], string(b), byProto[b]).Report()
		lab.Report(all)
	})

	spec := lab.FarmSpec{
		Nodes: cfgs[0].Nodes, FileMB: cfgs[0].FileBytes / 1e6,
		Networks: []string{string(cfgs[0].Network)},
	}
	for _, p := range sweepProtocols {
		spec.Protocols = append(spec.Protocols, string(p))
	}
	for i := 0; i < len(cfgs)/len(sweepProtocols); i++ {
		spec.Seeds = append(spec.Seeds, cfgs[i].Seed)
	}
	farm, err := lab.NewFarm(spec, 0)
	if err != nil {
		return err
	}
	srv := httptest.NewServer(&lab.FarmServer{Farm: farm})
	defer srv.Close()
	client := &lab.FarmClient{Base: srv.URL, Worker: "benchmark"}
	for range cfgs {
		var cell lab.Cell
		var lease string
		var verdict lab.ClaimVerdict
		tr.timed(root, "lab.claim", func() { cell, lease, _, verdict, err = client.Claim() })
		if err != nil {
			return err
		}
		if verdict != lab.ClaimGranted {
			return fmt.Errorf("farm claim verdict %v with cells pending", verdict)
		}
		if ok, err := client.Complete(lease, ids[cell.Index]); err != nil || !ok {
			return fmt.Errorf("farm complete of cell %d: ok=%v err=%v", cell.Index, ok, err)
		}
	}
	if st := farm.Status(); !st.Complete() || st.Failed > 0 {
		return fmt.Errorf("farm not complete after every cell was claimed and completed: %+v", st)
	}
	return nil
}
