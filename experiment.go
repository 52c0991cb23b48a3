package bulletprime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"bulletprime/internal/harness"
	"bulletprime/internal/lab"
	"bulletprime/internal/proto"
	"bulletprime/internal/trace"
)

// Experiment is one dissemination experiment session: a validated
// configuration plus the machinery to observe its run. New builds it,
// Subscribe attaches metric streams, and Run executes it under a context
// (cancel the context to end it early with partial results).
//
// An Experiment runs exactly once; results are bit-identical to the
// one-shot Run wrapper for the same RunConfig, observed or not, because
// observation hooks only read simulation state.
type Experiment struct {
	cfg       RunConfig // normalized
	spec      harness.SweepSpec
	receivers int

	mu        sync.Mutex
	observers []*Observer
	started   bool
}

// New validates cfg (defaults filled, registries consulted, the scenario
// compiled against the overlay size) and returns an unstarted session.
func New(cfg RunConfig) (*Experiment, error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	spec, err := buildSpec(norm)
	if err != nil {
		return nil, err
	}
	receivers := norm.Nodes - 1
	if norm.Engine == EngineSharded {
		// Sharded workloads have no distinguished source node; every node
		// pulls the file and completes.
		receivers = norm.Nodes
	}
	if spec.Scenario != nil {
		// Every flash-crowd wave has its own session source, which never
		// counts as a receiver.
		if waves := spec.Scenario.Waves(); waves != nil {
			receivers = norm.Nodes - len(waves)
		}
	}
	return &Experiment{cfg: norm, spec: spec, receivers: receivers}, nil
}

// Config returns the normalized configuration the session will run.
func (e *Experiment) Config() RunConfig { return e.cfg }

// observerBuffer is every stream's channel capacity: a consumer may fall a
// minute behind the default 1 s cadence before it loses a sample. A stream
// never stalls the simulation: when the buffer is full, the oldest buffered
// sample is discarded to make room for the newest (drop-oldest), and
// Observer.Dropped counts the losses. A stalled consumer therefore always
// finds the newest observerBuffer samples when it resumes, not the most
// ancient.
const observerBuffer = 64

// Observer is one live metric stream over an experiment's run.
type Observer struct {
	ch      chan Sample
	dropped atomic.Int64
}

// Samples returns the stream; it is closed when the run ends, making
// `for s := range obs.Samples()` the canonical consumption loop.
func (o *Observer) Samples() <-chan Sample { return o.ch }

// Dropped counts samples discarded because the consumer fell behind.
func (o *Observer) Dropped() int64 { return o.dropped.Load() }

// send delivers without ever blocking the simulation: a full buffer drops
// its oldest sample to make room for the newest.
func (o *Observer) send(s Sample) {
	select {
	case o.ch <- s:
		return
	default:
	}
	select {
	case <-o.ch:
		o.dropped.Add(1)
	default:
	}
	// Only this goroutine ever sends, and the receive above (or a consumer
	// draining concurrently) freed a slot, so this cannot block.
	o.ch <- s
}

// Subscribe attaches a metric stream to the session. The stream receives
// every sample the run takes, at RunConfig.SampleEvery (every virtual second
// when the run keeps no series), closing sample included: with SampleEvery
// > 0 it is exactly Result.Series. It must be called before Run.
func (e *Experiment) Subscribe() (*Observer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return nil, fmt.Errorf("bulletprime: Subscribe after Run")
	}
	o := &Observer{ch: make(chan Sample, observerBuffer)}
	e.observers = append(e.observers, o)
	return o, nil
}

// Run executes the session on the caller's goroutine and returns its Result.
// A nil ctx means Background; cancelling ctx stops the run at the next event
// boundary, and Run returns the partial Result with Cancelled set. Every
// observer stream is closed by the time Run returns. A run whose rig cannot
// be built returns an empty Result with the error. When RunConfig.Archive is
// set, the completed run is archived before Run returns, and a failure to
// archive it comes back beside the Result. A session runs once.
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	started := e.started
	e.started = true
	e.mu.Unlock()
	if started {
		return nil, fmt.Errorf("bulletprime: experiment already ran")
	}
	// Subscribe refuses once started is set, so the observers are fixed.
	defer func() {
		for _, o := range e.observers {
			close(o.ch)
		}
	}()
	spec := e.spec
	var rec *recorder
	var hooks harness.Hooks
	// A run nobody samples — SampleEvery < 0 and no observer, which is what the
	// Run/Sweep wrappers are — carries no sampling hooks at all.
	if len(e.observers) > 0 || e.cfg.SampleEvery > 0 {
		rec = newRecorder(e)
		hooks.TickEvery = rec.every
		if e.cfg.Engine == EngineSharded {
			// The harness delivers the same two moments through the hook
			// pair that takes a sharded rig, and refuses the rig-level ones.
			hooks.OnShardStart = func(rig *harness.ShardedRig, sys harness.System) { rec.start(rig, sys) }
			hooks.OnShardTick = func(*harness.ShardedRig, harness.System) { rec.tick() }
		} else {
			hooks.OnStart = func(rig *harness.Rig, sys harness.System) {
				rec.rig = rig
				rec.gauger, _ = rig.RT.Transport.(proto.Gauger)
				rec.start(rig, sys)
			}
			hooks.OnTick = func(*harness.Rig, harness.System) { rec.tick() }
			hooks.Annotate = rec.annotate
		}
	}
	// Cancelling ctx ends the run at the harness's next poll.
	hooks.Stop = func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	spec.Hooks = &hooks
	hres := harness.RunSpec(spec)
	res := toResult(hres)
	if hres.Err != nil {
		// The run never executed (its rig could not be built): return the
		// empty result beside the error, and never archive it.
		return res, hres.Err
	}
	if rec != nil && rec.probe != nil {
		// Take a closing sample so the series covers the tail (or, for a
		// cancelled run, the stop instant).
		if rec.last < res.Elapsed {
			rec.tick()
		}
		res.Series = rec.series
		res.Annotations = rec.annotations
	}
	if e.spec.Tracer != nil {
		res.Trace = traceReport(e.spec.Tracer)
	}
	// Automatic archival: every completed run with an archive configured
	// persists before Run returns. Cancelled runs are partial and never
	// archived.
	if e.cfg.Archive == nil || res.Cancelled {
		return res, nil
	}
	return res, recordRun(e.cfg.Archive, e.cfg, res)
}

// rigProbe is what the recorder reads of a rig, whichever shape it has: a
// coherent counter snapshot, and the data-rate meters it asked for (one on a
// single rig, one per shard on a sharded one, summed in slot order).
type rigProbe interface {
	Counters() harness.Counters
	InstallMeters(bucket float64, buckets int) []*trace.RateMeter
}

// recorder samples one run's metrics on the simulation's tick hook. All of
// its methods execute on the run's event loop — at horizon barriers on a
// sharded run, with no shard worker active — and only read state; observers
// receive copies over channels.
type recorder struct {
	every     float64
	blockSize float64
	receivers int
	observers []*Observer
	// recordSeries gates Result.Series; false when RunConfig.SampleEvery
	// is negative and only subscribed streams want samples.
	recordSeries bool
	// last is the time of the newest sample taken (-1 before the first).
	last float64

	probe  rigProbe
	sys    harness.System
	meters []*trace.RateMeter
	// rig is the single rig of a sequential or testbed run, where the
	// stream tracker and the annotation clock live; nil on a sharded run.
	rig *harness.Rig
	// gauger is the transport's live-state probe (testbed runs only); it
	// is called from tick events on the run-loop goroutine, the only place
	// transport state mutates.
	gauger proto.Gauger

	pending     []Annotation
	annotations []Annotation
	series      []Sample
}

func newRecorder(e *Experiment) *recorder {
	every := e.cfg.SampleEvery
	if every <= 0 { // the run keeps no series; its observers sample every second
		every = 1
	}
	return &recorder{
		every:        every,
		blockSize:    e.cfg.BlockSize,
		receivers:    e.receivers,
		observers:    e.observers,
		recordSeries: e.cfg.SampleEvery > 0,
		last:         -1,
	}
}

// start runs before the protocol starts: it keeps the rig and system to
// sample, and installs the goodput meters, which resolve rates over windows
// up to ~4 sample periods at quarter-period granularity.
func (rec *recorder) start(p rigProbe, sys harness.System) {
	rec.probe = p
	rec.sys = sys
	rec.meters = p.InstallMeters(rec.every/4, 16)
}

// annotate timestamps a scenario-event marker and queues it for the next
// sample.
func (rec *recorder) annotate(text string) {
	var at float64
	if rec.rig != nil {
		at = float64(rec.rig.Eng.Now())
	}
	a := Annotation{At: at, Text: text}
	rec.pending = append(rec.pending, a)
	rec.annotations = append(rec.annotations, a)
}

func (rec *recorder) takePending() []Annotation {
	if len(rec.pending) == 0 {
		return nil
	}
	p := rec.pending
	rec.pending = nil
	return p
}

// tick is the sampling clock: it assembles one Sample from the rig's
// counter snapshot, appends it to the series, and sends it to every
// observer.
func (rec *recorder) tick() {
	c := rec.probe.Counters()
	now := float64(c.Now)
	dup := harness.SystemDuplicates(rec.sys)
	// Rounded before the difference: arm64 would fuse it into one FMSUBD.
	dupBytes := float64(float64(dup) * rec.blockSize)
	useful := c.DataBytes - dupBytes
	if useful < 0 {
		useful = 0
	}
	s := Sample{
		Time:            now,
		Completed:       c.Completed,
		Receivers:       rec.receivers,
		ControlBytes:    c.ControlBytes,
		DataBytes:       c.DataBytes,
		DuplicateBlocks: dup,
		DuplicateBytes:  dupBytes,
		UsefulBytes:     useful,
		Annotations:     rec.takePending(),
		Layers:          c.Layers,
	}
	for _, m := range rec.meters {
		s.GoodputBps += m.Rate(c.Now, rec.every)
	}
	if rec.rig != nil && rec.rig.Stream != nil {
		ls := rec.rig.Stream.Sample(now)
		s.StreamLagP50 = ls.LagP50
		s.StreamLagMax = ls.LagMax
		s.Rebuffering = ls.Rebuffering
		s.RebufferEvents = ls.RebufferEvents
		s.StreamGoodputBps = ls.GoodputBps
	}
	if rec.gauger != nil {
		g := rec.gauger.Gauges()
		s.TestbedRTTp50 = g.RTTp50
		s.TestbedRTTMax = g.RTTMax
		s.TestbedUnackedBytes = g.UnackedBytes
		s.TestbedRetransmits = g.Retransmits
		s.TestbedInjectedDrops = g.InjectedDrops
	}
	rec.last = now
	if rec.recordSeries {
		rec.series = append(rec.series, s)
	}
	for _, o := range rec.observers {
		o.send(s)
	}
}

// SweepConfig describes a parallel experiment sweep: the cross product of
// Seeds × Protocols × Networks applied to a base configuration. Empty lists
// default to the base config's single value.
type SweepConfig struct {
	// Base supplies everything not varied by the lists below; Base.Parallel
	// sets the worker-pool size (0 = one worker per CPU).
	Base      RunConfig
	Seeds     []int64
	Protocols []Protocol
	Networks  []NetworkPreset

	// Reps runs every cell Reps times with RepSeed-derived master seeds
	// (repetition 0 keeps the listed seed verbatim, so Reps <= 1 is the
	// classic single-repetition sweep). Repetitions are the raw material
	// of the statistical gate: per-repetition medians feed bootstrap
	// confidence intervals and the Mann-Whitney significance test.
	Reps int
}

// SweepCell identifies one cell of a sweep's cross product before it runs.
type SweepCell struct {
	// Index is the cell's position in protocol-major, then network, then
	// seed order — the order Sweep returns results in.
	Index    int
	Protocol Protocol
	Network  NetworkPreset
	Seed     int64
	// Rep is the cell's repetition index; the cell actually runs with
	// the RepSeed-derived seed (Seed stays the listed base seed so cells
	// of one repetition group can be grouped by it).
	Rep int
}

// SweepRun is one completed cell of a sweep: the cell (Index, Protocol,
// Network, Seed, Rep) and what running it produced.
type SweepRun struct {
	SweepCell
	Result *Result
	// RunID is the archive id the cell recorded under when Base.Archive is
	// set (empty otherwise, and for cancelled or failed cells).
	RunID string
	// Err reports the cell's own failure (a rig that could not be built, or
	// a failed archive record); the cell's Result is still delivered.
	Err error
}

// expandSweep normalizes the base config and builds the cross product in
// lab.Cross order: protocol-major, then network, then seed, then repetition.
func expandSweep(cfg SweepConfig) ([]SweepCell, []RunConfig, error) {
	base, err := cfg.Base.normalized()
	if err != nil {
		return nil, nil, err
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []int64{base.Seed}
	}
	protocols := cfg.Protocols
	if len(protocols) == 0 {
		protocols = []Protocol{base.Protocol}
	}
	networks := cfg.Networks
	if len(networks) == 0 {
		networks = []NetworkPreset{base.Network}
	}
	var cells []SweepCell
	var cfgs []RunConfig
	lab.Cross(len(protocols), len(networks), seeds, cfg.Reps,
		func(index, p, n int, seed int64, rep int, runSeed int64) {
			rc := base
			rc.Protocol, rc.Network, rc.Seed = protocols[p], networks[n], runSeed
			cells = append(cells, SweepCell{Index: index, Protocol: protocols[p], Network: networks[n], Seed: seed, Rep: rep})
			cfgs = append(cfgs, rc)
		})
	return cells, cfgs, nil
}

// SweepStream runs the sweep as one session per cell over a worker pool
// and streams each cell's result as it completes (completion order, not
// index order — use SweepRun.Index to reorder). Cancelling ctx stops running
// cells mid-flight and skips the runs of unstarted ones; every cell still
// emits exactly one SweepRun (stopped and skipped cells carry
// Result.Cancelled), so the consumer MUST drain the channel until it
// closes. Every completed cell is bit-identical to Run with the same
// single config.
func SweepStream(ctx context.Context, cfg SweepConfig) (<-chan SweepRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cells, cfgs, err := expandSweep(cfg)
	if err != nil {
		return nil, err
	}
	for _, rc := range cfgs {
		if rc.Network == NetworkTestbedUDP {
			return nil, fmt.Errorf("bulletprime: sweeps do not support the testbed network (parallel wall-clock cells contend on real time); run testbed experiments one at a time")
		}
	}
	exps := make([]*Experiment, len(cfgs))
	for i, rc := range cfgs {
		exps[i], err = New(rc)
		if err != nil {
			return nil, err
		}
	}
	out := make(chan SweepRun)
	go func() {
		defer close(out)
		// expandSweep always yields at least one cell.
		harness.Parallel(len(exps), cfgs[0].Parallel, func(i int) {
			run := SweepRun{SweepCell: cells[i]}
			if ctx.Err() != nil {
				// The sweep was cancelled before this cell started; report
				// it without paying for rig construction.
				run.Result = &Result{CompletionTimes: map[int]float64{}, Cancelled: true}
			} else {
				// Run's error is the cell's own failure (its rig, or its
				// archive record when Base.Archive is set); it rides along
				// in SweepRun.Err beside the Result.
				run.Result, run.Err = exps[i].Run(ctx)
				if run.Err == nil && !run.Result.Cancelled {
					run.RunID = exps[i].RunID()
				}
			}
			// Delivery blocks: the consumer contract is to drain until
			// close, and a cancelled run's partial result is exactly what
			// the consumer cancelled to get.
			out <- run
		})
	}()
	return out, nil
}

// Sweep fans the cross product of the config across a worker pool of
// sessions and returns one entry per run, ordered protocol-major, then
// network, then seed: the one-shot compatibility wrapper over SweepStream.
// Every cell is bit-identical to Run with the same single config.
func Sweep(cfg SweepConfig) ([]SweepRun, error) {
	cfg.Base.SampleEvery = -1
	ch, err := SweepStream(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	var runs []SweepRun
	for r := range ch {
		runs = append(runs, r)
	}
	ordered := make([]SweepRun, len(runs))
	for _, r := range runs {
		ordered[r.Index] = r
	}
	return ordered, nil
}
