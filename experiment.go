package bulletprime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"bulletprime/internal/harness"
	"bulletprime/internal/lab"
	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/trace"
)

// Experiment is one dissemination experiment session: a validated
// configuration plus the machinery to observe and steer its run. New
// builds it, Subscribe attaches metric streams, Start launches the run
// under a context (cancel the context — or call Stop — to end it early
// with partial results), and Wait returns the Result. Run bundles
// Start+Wait.
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
	cancel    context.CancelFunc

	done chan struct{}
	res  *Result
	// runID and recordErr report the automatic archive record made when
	// cfg.Archive is set; seriesEvery is the effective cadence of the
	// recorded Result.Series (-1 when the run kept none), part of the
	// archive key. All three are published by the close of done.
	runID       string
	recordErr   error
	seriesEvery float64
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
	return &Experiment{
		cfg:       norm,
		spec:      spec,
		receivers: receivers,
		done:      make(chan struct{}),
	}, nil
}

// Config returns the normalized configuration the session will run.
func (e *Experiment) Config() RunConfig { return e.cfg }

// ObserverConfig parameterizes one metric stream.
type ObserverConfig struct {
	// Every is the stream's cadence in virtual seconds; it defaults to
	// the session's SampleEvery and may be finer (which also refines
	// Result.Series).
	Every float64
	// Buffer is the stream's channel capacity (default 64). The stream
	// never stalls the simulation: when the buffer is full, the oldest
	// buffered sample is discarded to make room for the newest
	// (drop-oldest), and Observer.Dropped counts the losses. A stalled
	// consumer therefore always finds the most recent Buffer samples when
	// it resumes, not the most ancient.
	Buffer int
	// PerNode includes per-node progress (blocks held, incoming rate,
	// done) in every streamed sample.
	PerNode bool
}

// Observer is one live metric stream over an experiment's run.
type Observer struct {
	every    float64
	perNode  bool
	ch       chan Sample
	lastEmit float64
	dropped  atomic.Int64
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

// Subscribe attaches a metric stream to the session. It must be called
// before Start.
func (e *Experiment) Subscribe(oc ObserverConfig) (*Observer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return nil, fmt.Errorf("bulletprime: Subscribe after Start")
	}
	if oc.PerNode && e.cfg.Engine == EngineSharded {
		return nil, fmt.Errorf("bulletprime: sharded runs do not support PerNode observers (per-node meters live on shard-private runtimes)")
	}
	if oc.Every < 0 {
		return nil, fmt.Errorf("bulletprime: observer Every must be >= 0, got %v", oc.Every)
	}
	every := oc.Every
	if every == 0 {
		every = e.cfg.SampleEvery
		if every <= 0 { // series sampling disabled; streams default to 1 s
			every = 1
		}
	}
	buffer := oc.Buffer
	if buffer <= 0 {
		buffer = 64
	}
	o := &Observer{every: every, perNode: oc.PerNode, ch: make(chan Sample, buffer)}
	e.observers = append(e.observers, o)
	return o, nil
}

// Start launches the run in the background. A nil ctx means Background;
// cancelling the context stops the run at the next event boundary, and
// Wait then returns the partial Result with Cancelled set. Starting twice
// is an error.
func (e *Experiment) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return fmt.Errorf("bulletprime: experiment already started")
	}
	e.started = true
	runCtx, cancel := context.WithCancel(ctx)
	e.cancel = cancel
	go e.run(runCtx)
	return nil
}

// Stop requests early termination, equivalent to cancelling Start's
// context. It is safe to call at any time after Start.
func (e *Experiment) Stop() {
	e.mu.Lock()
	cancel := e.cancel
	e.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done is closed when the run ends (complete, deadline, or cancelled).
func (e *Experiment) Done() <-chan struct{} { return e.done }

// Wait blocks until the run ends and returns its Result. It is an error
// to Wait on a session that was never started. When RunConfig.Archive is
// set, Wait also surfaces a failure to archive the completed run — the
// Result is still returned alongside the error.
func (e *Experiment) Wait() (*Result, error) {
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if !started {
		return nil, fmt.Errorf("bulletprime: Wait before Start")
	}
	<-e.done
	return e.res, e.recordErr
}

// Run is Start followed by Wait.
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	if err := e.Start(ctx); err != nil {
		return nil, err
	}
	return e.Wait()
}

// run executes the session on its own goroutine: it assembles the harness
// hooks (sampling ticks, annotation capture, cancellation poll), runs the
// spec, and publishes the result.
func (e *Experiment) run(ctx context.Context) {
	defer e.cancel()
	// Whatever the outcome, publishing it ends every stream and then the
	// session; seriesEvery stays -1 unless a series was recorded.
	e.seriesEvery = -1
	defer func() {
		for _, o := range e.observers {
			close(o.ch)
		}
		close(e.done)
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
			if rec.perNode {
				hooks.OnBlock = rec.onBlock
			}
		}
	}
	// The cancellation poll is always installed: Start wraps every caller
	// context in a cancellable one, and Stop depends on it.
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
	e.res = res
	if hres.Err != nil {
		// The run never executed (its rig could not be built); surface it through
		// Wait alongside the empty result, and never archive it.
		e.recordErr = hres.Err
		return
	}
	if rec != nil && rec.probe != nil {
		// Flush a closing sample so the series covers the tail (or, for a
		// cancelled run, the stop instant).
		if n := len(rec.series); n == 0 || rec.series[n-1].Time < res.Elapsed {
			rec.tick()
		}
		res.Series = rec.series
		res.Annotations = rec.annotations
	}
	if e.spec.Tracer != nil {
		res.Trace = traceReport(e.spec.Tracer)
	}
	// The archive key covers what was actually persisted: a run that kept
	// a time-series (possibly at an observer-refined cadence) must never
	// share an id — and thus dedupe — with an unobserved run of the same
	// config whose record has no series.
	if rec != nil && rec.recordSeries {
		e.seriesEvery = rec.every
	}
	// Automatic archival: every completed run with an archive configured
	// persists before the session reports done. Cancelled runs are partial
	// and never archived.
	if e.cfg.Archive != nil && !res.Cancelled {
		e.runID, e.recordErr = recordRun(e.cfg.Archive, e.cfg, res, e.seriesEvery)
	}
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
	perNode   bool
	// recordSeries gates Result.Series; false when RunConfig.SampleEvery
	// is negative and only subscribed streams want samples.
	recordSeries bool

	probe  rigProbe
	sys    harness.System
	meters []*trace.RateMeter
	// rig is the single rig of a sequential or testbed run, where the
	// stream tracker, per-node progress and the annotation clock live; nil
	// on a sharded run.
	rig    *harness.Rig
	blocks []int
	// gauger is the transport's live-state probe (testbed runs only); it
	// is called from tick events on the run-loop goroutine, the only place
	// transport state mutates.
	gauger proto.Gauger

	pending     []Annotation
	annotations []Annotation
	series      []Sample
}

func newRecorder(e *Experiment) *recorder {
	every := e.cfg.SampleEvery // negative (series disabled) defers to observers
	perNode := false
	for _, o := range e.observers {
		if every <= 0 || o.every < every {
			every = o.every
		}
		if o.perNode {
			perNode = true
		}
	}
	rec := &recorder{
		every:        every,
		blockSize:    e.cfg.BlockSize,
		receivers:    e.receivers,
		observers:    e.observers,
		perNode:      perNode,
		recordSeries: e.cfg.SampleEvery > 0,
	}
	if perNode {
		rec.blocks = make([]int, e.cfg.Nodes)
	}
	return rec
}

// start runs before the protocol starts: it keeps the rig and system to
// sample, and installs the goodput meters, which resolve rates over windows
// up to ~4 sample periods at quarter-period granularity.
func (rec *recorder) start(p rigProbe, sys harness.System) {
	rec.probe = p
	rec.sys = sys
	rec.meters = p.InstallMeters(rec.every/4, 16)
}

// onBlock tracks per-node block counts (novel arrivals only).
func (rec *recorder) onBlock(id netem.NodeID, blockID, count int) {
	if int(id) < len(rec.blocks) {
		rec.blocks[id] = count
	}
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

// nodeProgress snapshots every member's download state.
func (rec *recorder) nodeProgress() []NodeProgress {
	rig := rec.rig
	now := rig.Eng.Now()
	out := make([]NodeProgress, 0, len(rig.Members))
	for _, id := range rig.Members {
		np := NodeProgress{Node: int(id)}
		if rec.blocks != nil && int(id) < len(rec.blocks) {
			np.Blocks = rec.blocks[id]
		}
		if n := rig.RT.Node(id); n != nil {
			np.Bps = n.InMeter.Rate(now, rec.every)
		}
		_, np.Done = rig.Done[id]
		out = append(out, np)
	}
	return out
}

// tick is the sampling clock: it assembles one Sample from the rig's
// counter snapshot, appends it to the series, and fans it out to every
// observer whose cadence is due.
func (rec *recorder) tick() {
	c := rec.probe.Counters()
	now := float64(c.Now)
	dup := harness.SystemDuplicates(rec.sys)
	dupBytes := float64(dup) * rec.blockSize
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
	rec.emit(s)
}

// emit appends one assembled sample to the series and fans it out to every
// observer whose cadence is due.
func (rec *recorder) emit(s Sample) {
	if rec.recordSeries {
		rec.series = append(rec.series, s)
	}
	var nodes []NodeProgress
	for _, o := range rec.observers {
		if s.Time-o.lastEmit < o.every-1e-9 {
			continue
		}
		o.lastEmit = s.Time
		out := s
		if o.perNode && rec.rig != nil {
			if nodes == nil {
				nodes = rec.nodeProgress()
			}
			out.Nodes = nodes
		}
		o.send(out)
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
	// RunID is the archive id the cell recorded under when
	// Base.Archive is set (empty otherwise, and for cancelled cells).
	RunID string
	// Err reports a per-cell archival failure; the cell's Result is still
	// delivered.
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
// index order — use SweepRun.Index to reorder). The observe callback, when
// non-nil, runs just before each cell starts and may Subscribe to the
// cell's session for live per-cell progress; it is invoked concurrently
// from up to Parallel worker goroutines, so callbacks touching shared
// state must synchronize. Cancelling ctx stops running
// cells mid-flight and skips the runs of unstarted ones; every cell still
// emits exactly one SweepRun (stopped and skipped cells carry
// Result.Cancelled), so the consumer MUST drain the channel until it
// closes. Every completed cell is bit-identical to Run with the same
// single config.
func SweepStream(ctx context.Context, cfg SweepConfig, observe func(SweepCell, *Experiment)) (<-chan SweepRun, error) {
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
			var res *Result
			var runID string
			var recErr error
			if ctx.Err() != nil {
				// The sweep was cancelled before this cell started; report
				// it without paying for rig construction.
				res = &Result{CompletionTimes: map[int]float64{}, Cancelled: true}
			} else {
				if observe != nil {
					observe(cells[i], exps[i])
				}
				// Start may fail only when the observe callback already
				// started the cell itself; Wait covers both.
				_ = exps[i].Start(ctx)
				// Wait's error is the cell's archival failure (when
				// Base.Archive is set); it rides along in SweepRun.Err.
				res, recErr = exps[i].Wait()
				runID = exps[i].RunID()
				if res == nil {
					// Unreachable after a Start attempt, but a nil Result
					// must never reach the stream's consumers.
					res, recErr = &Result{CompletionTimes: map[int]float64{}, Cancelled: true}, nil
				}
			}
			// Delivery blocks: the consumer contract is to drain until
			// close, and a cancelled run's partial result is exactly what
			// the consumer cancelled to get.
			out <- SweepRun{SweepCell: cells[i], Result: res, RunID: runID, Err: recErr}
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
	ch, err := SweepStream(context.Background(), cfg, nil)
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
