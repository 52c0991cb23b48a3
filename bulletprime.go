// Package bulletprime is a faithful reproduction of "Maintaining High
// Bandwidth under Dynamic Network Conditions" (Kostić et al., USENIX ATC
// 2005): the Bullet' mesh-based high-bandwidth data dissemination system,
// the baselines it was evaluated against (Bullet, BitTorrent, SplitStream),
// the Shotgun rapid-synchronization tool, the rateless erasure codes of
// §2.2, and a deterministic flow-level network emulator standing in for
// ModelNet.
//
// This file is the public façade. The unit of work is an experiment
// session: New validates a RunConfig into an Experiment handle, Subscribe
// attaches live metric observers (completions, instantaneous goodput,
// control overhead, scenario-event annotations), each of which receives
// every sample the run takes at RunConfig.SampleEvery, and Run executes it
// under a context, which can cancel the run mid-flight and still return the
// partial time-series.
//
//	exp, err := bulletprime.New(bulletprime.RunConfig{
//	    Protocol:    bulletprime.ProtocolBulletPrime,
//	    Nodes:       50,
//	    FileBytes:   20 << 20,
//	    Network:     bulletprime.NetworkModelNet,
//	    Seed:        1,
//	    SampleEvery: 5,
//	})
//	if err != nil { ... }
//	obs, _ := exp.Subscribe()
//	go func() {
//	    for s := range obs.Samples() {
//	        fmt.Printf("t=%.0fs %d/%d done, %.1f Mbps\n",
//	            s.Time, s.Completed, s.Receivers, s.GoodputBps*8/1e6)
//	    }
//	}()
//	res, err := exp.Run(ctx)
//
// Protocols and network presets are open registries (RegisterProtocol,
// RegisterNetwork): the paper's four systems and six environments
// self-register, and downstream packages can plug in their own without
// touching internal switches. The one-shot Run and Sweep functions remain
// as thin compatibility wrappers over sessions and produce bit-identical
// results for equal seeds.
//
// Results persist: setting RunConfig.Archive records every completed run
// and sweep cell into a content-addressed experiment archive on disk
// (identical reruns dedupe, changed configs never collide), and
// OpenArchive/ArchiveFilter/CompareArchived/ArchiveReport query archived
// runs back and diff them into paper-style comparison reports — the
// machinery behind bulletctl's ls/show/compare/report/gate subcommands
// and the CI bench gate.
//
// The cmd/bulletctl tool regenerates every figure of the paper's
// evaluation; DESIGN.md §1 is the experiment index (§6 documents the
// session API, §7 the experiment archive), and README.md's Performance
// section holds the measured tables.
package bulletprime

import (
	"errors"
	"fmt"
	"math"

	"bulletprime/internal/core"
	"bulletprime/internal/harness"
	"bulletprime/internal/lab"
	"bulletprime/internal/obs"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
	"bulletprime/internal/stream"
	"bulletprime/internal/trace"
)

// Scenario is a declarative experiment schedule: link dynamics, trace
// replay, stochastic outages, churn, and flash-crowd waves, compiled onto
// the emulated network deterministically per seed. Build one with the
// scenario package's helpers or load a JSON file with LoadScenario, then
// set RunConfig.Scenario. See DESIGN.md §5 for the file format.
type Scenario = scenario.Scenario

// LoadScenario reads a JSON scenario file, resolving trace_file references
// relative to the scenario file's directory. Validation against a concrete
// overlay size happens in New/Run/Sweep (or scenario.Scenario.Compile).
func LoadScenario(path string) (*Scenario, error) {
	return scenario.LoadFile(path)
}

// Protocol selects the dissemination system for a run, resolved through
// the open protocol registry (see RegisterProtocol).
type Protocol string

// The four systems evaluated by the paper.
const (
	ProtocolBulletPrime Protocol = "bulletprime"
	ProtocolBullet      Protocol = "bullet"
	ProtocolBitTorrent  Protocol = "bittorrent"
	ProtocolSplitStream Protocol = "splitstream"
)

// ProtocolScalefill is the sharded engine's reference workload: every node
// pulls the file through intra-cluster transfers under per-shard link
// churn, with cross-shard token coupling. It requires EngineSharded and a
// clustered network preset; it is the workload behind the Scale50000
// preset and the sharded-vs-sequential equivalence tests.
const ProtocolScalefill Protocol = "scalefill"

// EngineMode selects a run's execution engine; see the RunConfig.Engine
// field. It re-exports harness.EngineMode.
type EngineMode = harness.EngineMode

const (
	// EngineSequential is the default single-threaded event loop — the
	// bit-exact oracle every other mode is pinned against.
	EngineSequential = harness.EngineSequential
	// EngineSharded partitions a run into per-cluster shards executing in
	// parallel in lockstep lookahead windows (DESIGN.md §9). It
	// requires a clustered network preset and a protocol registered with a
	// sharded builder (ProtocolScalefill), and excludes scenarios and
	// DynamicBandwidth — sharded systems drive their own per-shard
	// dynamics. Observers and the sampled time-series work: samples are
	// merged from per-shard counters at horizon barriers (DESIGN.md §12),
	// and an observed run stays bit-identical to an unobserved one.
	EngineSharded = harness.EngineSharded
)

// NetworkPreset selects an emulated environment, resolved through the open
// network registry (see RegisterNetwork).
type NetworkPreset string

// Presets matching the paper's experiment environments (§4.1, §4.4, §4.5,
// §4.7).
const (
	// NetworkModelNet: 6 Mbps access, 2 Mbps core, delay U[5,200) ms,
	// loss U[0,3%) — the main evaluation environment.
	NetworkModelNet NetworkPreset = "modelnet"
	// NetworkModelNetClean: same without random loss.
	NetworkModelNetClean NetworkPreset = "modelnet-clean"
	// NetworkConstrained: 800 Kbps access over a clean 10 Mbps core.
	NetworkConstrained NetworkPreset = "constrained"
	// NetworkHighBDP: 10 Mbps / 100 ms paths (large bandwidth-delay
	// product), no loss.
	NetworkHighBDP NetworkPreset = "highbdp"
	// NetworkPlanetLab: heterogeneous wide-area node mix.
	NetworkPlanetLab NetworkPreset = "planetlab"
	// NetworkClustered: co-located 25-node sites with fast clean links
	// inside a cluster and scarce lossy links between clusters — the
	// large-scale (1000-node) sweep environment.
	NetworkClustered NetworkPreset = "clustered"
	// NetworkClusteredCompact: the clustered environment in O(n) memory —
	// per-pair link parameters derived from a hash instead of dense
	// matrices, statistically identical to NetworkClustered. The only
	// preset that fits 50000 nodes; pair it with EngineSharded.
	NetworkClusteredCompact NetworkPreset = "clustered-compact"
	// NetworkTestbedUDP: no emulation at all — the protocols run over real
	// UDP sockets (loopback by default, a peer address table for
	// multi-host), with the engine's virtual clock driven by the wall
	// clock. Tune it with RunConfig.Testbed; incompatible with
	// EngineSharded, Scenario, and DynamicBandwidth. Observers work, with
	// Sample's Testbed* transport gauges populated (measured RTTs, unacked
	// bytes, retransmits). See DESIGN.md §10 and §12.
	NetworkTestbedUDP NetworkPreset = "testbed-udp"
)

// TestbedOptions tunes a NetworkTestbedUDP run; the zero value is the
// loopback default (127.0.0.1, real-time clock, 50 ms RTO, 8 retries, no
// injected loss). It re-exports testbed.Config (harness.TestbedSpec): the
// option a caller sets is the config the UDP transport reads.
type TestbedOptions = harness.TestbedSpec

// TraceOptions enables structured event tracing for a run: typed spans are
// recorded for protocol decisions (sender trims and promotions, rechokes,
// reconcile rounds, stream rebuffers, testbed retransmits) into a bounded
// ring and returned as Result.Trace. Tracing only reads run state, so a
// traced run is bit-identical to an untraced one; on sharded runs each
// shard records privately and the spans merge deterministically after the
// run. Export the report with bulletctl trace (JSONL or Chrome
// trace_event). See DESIGN.md §12.
type TraceOptions struct {
	// Capacity bounds the span ring; 0 picks the default (16384). When the
	// ring is full the oldest span is evicted and TraceReport.Dropped
	// counts it — per-kind Counts still cover every recorded event.
	Capacity int
}

// StreamOptions makes a run a live stream: the source emits one block every
// BlockSize/BitrateBps seconds for Duration seconds instead of holding a
// complete file at t=0, and every receiver is tracked as a viewer playing
// the stream behind the live edge — Sample gains lag/rebuffer fields and
// Result.Stream reports per-viewer aggregates. FileBytes is derived as
// BitrateBps × Duration rounded up to whole blocks, so leave it zero;
// streaming requires a stream-capable protocol (ProtocolBulletPrime or
// ProtocolBullet) on the sequential emulated engine. See DESIGN.md §11.
//
// It re-exports stream.Options (harness.StreamSpec), the one declaration of
// a stream's settings: PlayoutDepth 0 picks 4, Drain 0 picks 15, Warmup 0
// picks min(Duration/4, 10) and a negative Warmup switches the steady-state
// window off. Its JSON form is the "stream" block of a run's fingerprint.
type StreamOptions = stream.Options

// RequestStrategy re-exports the §3.3.2 request orderings.
type RequestStrategy = core.RequestStrategy

// The four request strategies of §3.3.2.
const (
	FirstEncountered = core.FirstEncountered
	RandomStrategy   = core.Random
	Rarest           = core.Rarest
	RarestRandom     = core.RarestRandom
)

// RunConfig describes one dissemination experiment.
type RunConfig struct {
	// Protocol defaults to ProtocolBulletPrime; any registered protocol
	// name is accepted.
	Protocol Protocol
	// Nodes is the overlay size including the source (minimum 8).
	Nodes int
	// FileBytes is the file size; BlockSize defaults to 16 KB.
	FileBytes float64
	BlockSize float64
	// Network defaults to NetworkModelNet; any registered network name is
	// accepted.
	Network NetworkPreset
	// DynamicBandwidth enables the §4.1 synthetic bandwidth-change
	// process (20 s period, cumulative halving).
	DynamicBandwidth bool
	// Scenario applies a declarative scenario (LoadScenario or the
	// scenario package's builders) on top of the preset network: link
	// dynamics, trace replay, outages, churn, flash-crowd waves. Composes
	// with DynamicBandwidth; same seed + same scenario ⇒ bit-identical
	// run.
	Scenario *Scenario
	// Seed makes the run reproducible; equal seeds share topology draws
	// across protocols.
	Seed int64
	// Deadline bounds simulated time (seconds); default 3600.
	Deadline float64
	// Parallel is the worker-pool size used when this config is the base
	// of a Sweep; 0 means one worker per CPU, negative is rejected. A
	// single run ignores it.
	Parallel int
	// SampleEvery is the session's sampling cadence in virtual seconds
	// (default 1). An Experiment samples Result.Series at this rate, and
	// every subscribed observer receives exactly those samples. Negative
	// disables Result.Series (subscribed observers then receive a sample
	// every virtual second). The one-shot Run/Sweep wrappers set it
	// negative. New refuses NaN, ±Inf and a positive cadence below 1/1024 s,
	// one tick of the event wheel.
	SampleEvery float64
	// Engine selects the execution engine: EngineSequential (the zero
	// value) or EngineSharded. Sharded runs execute per-cluster shards in
	// parallel within one run; they require a clustered network preset and
	// a sharded-registered protocol (e.g. ProtocolScalefill), and are
	// incompatible with Scenario and DynamicBandwidth. Observers and the
	// sampled time-series work — samples merge per-shard counters at
	// horizon barriers, without perturbing the run.
	Engine EngineMode
	// Shards is the shard count for EngineSharded; 0 picks the default.
	// Results depend on the shard count — it is part of the experiment's
	// identity, never derived from the host's core count.
	Shards int
	// ShardWorkers caps the goroutines driving a sharded run: 1 runs all
	// shards cooperatively on one goroutine (the bit-exact oracle of the
	// parallel mode), 0 or any other value runs one goroutine per shard.
	// Results never depend on it.
	ShardWorkers int
	// Testbed tunes a NetworkTestbedUDP run (clock rate, retransmission,
	// loss injection, peer addresses); nil picks the loopback defaults.
	// Setting it with any other network preset is an error.
	Testbed *TestbedOptions
	// Archive, when set, persists every completed run — and every sweep
	// cell using this config as its base — into the experiment archive,
	// keyed by a deterministic hash of the normalized config, scenario
	// digest, seed, and code version (identical reruns dedupe; execution
	// knobs like Parallel are excluded from the hash). Cancelled runs are
	// never archived. See OpenArchive and DESIGN.md §7.
	Archive *Archive

	// Stream, when non-nil, makes the run a live stream (see StreamOptions):
	// paced source emission, per-viewer lag/rebuffer tracking, and the
	// Result.Stream report. FileBytes is then derived from the stream
	// geometry: leave it zero (a normalized config carries the derived size).
	Stream *StreamOptions

	// Trace, when non-nil, records structured protocol-decision spans into
	// Result.Trace (see TraceOptions). Works on every engine and network
	// backend; never perturbs the run.
	Trace *TraceOptions

	// Bullet'-specific knobs (ignored by other protocols).
	Strategy          RequestStrategy // zero value FirstEncountered, passed through as is; ask for the paper's RarestRandom by name
	StaticPeers       int             // pin peer-set size; 0 = adaptive
	StaticOutstanding int             // pin outstanding window; 0 = adaptive
	Encoded           bool            // source fountain-coding mode
}

// errStaticPeersRange is normalized's error for a StaticPeers outside the
// range core.Config accepts: a Bullet' peer counts the senders advertising
// a block in one byte.
var errStaticPeersRange = errors.New("bulletprime: StaticPeers must be in [0, 255]")

// SampleEvery's refusals. A cadence finer than one bucket of the event
// wheel (sim.WheelTick, 1/1024 s) takes more samples than the run has
// events to sample between: a 1 ns cadence reached 2.3 ms of virtual time in
// 3.9 s of wall.
var (
	errSampleEveryNotFinite = errors.New("bulletprime: SampleEvery must be finite")
	errSampleEveryBelowTick = errors.New("bulletprime: a positive SampleEvery must be at least 1/1024 s, the event wheel's tick")
)

// normalized is the single place RunConfig defaults live, together with the
// rules about fields only the façade has (Nodes, FileBytes, Parallel,
// Encoded, Testbed option ranges, shard knobs without the sharded engine,
// registry names). Which features combine is the harness's one rule table,
// harness.SweepSpec.Check, which New runs on the lowered spec; every entry
// point (New, Run, Sweep cells) goes through both, so a misconfiguration
// fails the same way everywhere.
func (cfg RunConfig) normalized() (RunConfig, error) {
	if cfg.Nodes < 8 {
		return cfg, fmt.Errorf("bulletprime: need at least 8 nodes, got %d", cfg.Nodes)
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 16 * 1024
	}
	if cfg.Stream != nil {
		s := cfg.Stream.Normalized()
		cfg.Stream = &s
		// A stream derives its content size from rate × duration; a
		// normalized config carries it.
		content := stream.Config{Options: s, BlockSize: cfg.BlockSize}.ContentBytes()
		if cfg.FileBytes != 0 && cfg.FileBytes != content {
			return cfg, fmt.Errorf("bulletprime: a streaming run derives FileBytes from BitrateBps × Duration; leave it zero")
		}
		cfg.FileBytes = content
		if cfg.Encoded {
			return cfg, fmt.Errorf("bulletprime: Stream and Encoded both redefine the source emission; pick one")
		}
	}
	if cfg.FileBytes <= 0 {
		return cfg, fmt.Errorf("bulletprime: FileBytes must be positive")
	}
	if cfg.Parallel < 0 {
		return cfg, fmt.Errorf("bulletprime: Parallel must be >= 0, got %d", cfg.Parallel)
	}
	if cfg.StaticPeers < 0 || cfg.StaticPeers > 255 {
		return cfg, fmt.Errorf("%w, got %d", errStaticPeersRange, cfg.StaticPeers)
	}
	if cfg.Protocol == "" {
		cfg.Protocol = ProtocolBulletPrime
	}
	if cfg.Network == "" {
		cfg.Network = NetworkModelNet
	}
	if math.IsNaN(cfg.Deadline) || math.IsInf(cfg.Deadline, 0) {
		return cfg, fmt.Errorf("bulletprime: Deadline must be finite, got %v", cfg.Deadline)
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 3600
	}
	switch {
	case math.IsNaN(cfg.SampleEvery) || math.IsInf(cfg.SampleEvery, 0):
		return cfg, fmt.Errorf("%w, got %v", errSampleEveryNotFinite, cfg.SampleEvery)
	case cfg.SampleEvery == 0:
		cfg.SampleEvery = 1
	case cfg.SampleEvery < 0:
		cfg.SampleEvery = -1 // canonical "series disabled"
	case cfg.SampleEvery < sim.WheelTick:
		return cfg, fmt.Errorf("%w, got %v", errSampleEveryBelowTick, cfg.SampleEvery)
	}
	if cfg.Trace != nil && cfg.Trace.Capacity < 0 {
		return cfg, fmt.Errorf("bulletprime: Trace.Capacity must be >= 0, got %d", cfg.Trace.Capacity)
	}
	if cfg.Network == NetworkTestbedUDP {
		if cfg.Testbed == nil {
			cfg.Testbed = &TestbedOptions{}
		}
		if cfg.Testbed.Rate < 0 || cfg.Testbed.RTO < 0 || cfg.Testbed.MaxRetries < 0 {
			return cfg, fmt.Errorf("bulletprime: Testbed Rate/RTO/MaxRetries must be >= 0")
		}
		if cfg.Testbed.DropProb < 0 || cfg.Testbed.DropProb >= 1 {
			return cfg, fmt.Errorf("bulletprime: Testbed DropProb must be in [0, 1), got %v", cfg.Testbed.DropProb)
		}
		tb := cfg.Testbed.Normalized()
		cfg.Testbed = &tb
	} else if cfg.Testbed != nil {
		return cfg, fmt.Errorf("bulletprime: Testbed options require Network: NetworkTestbedUDP, got %q", cfg.Network)
	}
	switch {
	case cfg.Engine == EngineSharded && cfg.Shards <= 0:
		cfg.Shards = harness.DefaultShards
	case cfg.Engine != EngineSharded && (cfg.Shards != 0 || cfg.ShardWorkers != 0):
		return cfg, fmt.Errorf("bulletprime: Shards/ShardWorkers are sharded-engine knobs; set Engine: EngineSharded")
	}
	if _, ok := lookupProtocol(cfg.Protocol); !ok {
		return cfg, fmt.Errorf("bulletprime: unknown protocol %q (registered: %v)",
			cfg.Protocol, Protocols())
	}
	if _, ok := lookupNetwork(cfg.Network); !ok {
		return cfg, fmt.Errorf("bulletprime: unknown network preset %q (registered: %v)",
			cfg.Network, Networks())
	}
	return cfg, nil
}

// buildSpec lowers a normalized RunConfig into a harness spec and runs the
// harness's rule table on it; every session and sweep cell shares it, so a
// sweep's rigs are bit-identical to single runs.
func buildSpec(cfg RunConfig) (harness.SweepSpec, error) {
	var spec harness.SweepSpec
	systemName, _ := lookupProtocol(cfg.Protocol)

	var prog *scenario.Program
	if cfg.Scenario != nil {
		var err error
		prog, err = cfg.Scenario.Compile(cfg.Nodes)
		if err != nil {
			return spec, fmt.Errorf("bulletprime: %w", err)
		}
	}

	coreMut := func(c *core.Config) {
		c.Strategy = cfg.Strategy
		c.StaticPeers = cfg.StaticPeers
		c.StaticOutstanding = cfg.StaticOutstanding
		c.Encoded = cfg.Encoded
	}

	var tracer *obs.Tracer
	if cfg.Trace != nil {
		tracer = obs.NewTracer(cfg.Trace.Capacity)
	}

	spec = harness.SweepSpec{
		Label:    fmt.Sprintf("%s/%s/seed%d", cfg.Protocol, cfg.Network, cfg.Seed),
		Seed:     cfg.Seed,
		System:   systemName,
		Workload: harness.Workload{FileBytes: cfg.FileBytes, BlockSize: cfg.BlockSize},
		CoreMut:  coreMut,
		Deadline: sim.Time(cfg.Deadline),
		Scenario: prog,
		Engine:   cfg.Engine,
		Shards:   cfg.Shards,
		Workers:  cfg.ShardWorkers,
		Testbed:  cfg.Testbed, // non-nil exactly on NetworkTestbedUDP (normalized)
		Stream:   cfg.Stream,
		Tracer:   tracer,
	}
	if cfg.DynamicBandwidth {
		spec.Dynamics = harness.SyntheticBandwidthChanges(20)
	}
	if err := spec.Check(); err != nil {
		return spec, err
	}
	// The topology generator comes after the rules: a preset may refuse a
	// node count outright (the clustered ones want whole clusters), and a
	// config no backend could run should hear about that first.
	var err error
	spec.TopoFn, err = topologyFor(cfg)
	return spec, err
}

// topologyFor asks the config's network preset for its topology generator. A
// NetworkBuilder returns no error, so a preset that cannot build the node
// count it is given panics; that refusal is New's error, not the caller's
// stack trace.
func topologyFor(cfg RunConfig) (fn TopologyFn, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bulletprime: network preset %q refuses %d nodes: %v", cfg.Network, cfg.Nodes, r)
		}
	}()
	build, _ := lookupNetwork(cfg.Network)
	return build(cfg.Nodes), nil
}

// Sample is one tick of an experiment's metric stream, Annotation a
// timestamped timeline marker inside it. They re-export the archive layer's
// types: the sample an observer receives is the sample a record stores.
type (
	Sample     = lab.Sample
	Annotation = lab.Annotation
)

// Result reports a run's outcome.
type Result struct {
	// CompletionTimes maps node id to download completion (seconds of
	// simulated time); session sources are not included.
	CompletionTimes map[int]float64
	// Finished reports whether every node completed before the deadline.
	Finished bool
	// Cancelled reports the run was stopped early through its context;
	// CompletionTimes and Series then hold the partial state observed up
	// to the stop.
	Cancelled bool
	// Elapsed is the virtual time at which the run ended.
	Elapsed float64
	// ControlOverhead is control bytes / total bytes delivered.
	ControlOverhead float64
	// Series is the sampled time-series of an observed session run, in
	// time order; nil for the one-shot Run/Sweep wrappers.
	Series []Sample
	// Annotations lists every scenario-event marker observed during a
	// session run, in time order.
	Annotations []Annotation
	// Stream is the live-streaming report of a streaming run
	// (RunConfig.Stream): per-viewer lag/jitter/rebuffer rows and their
	// aggregates. Nil for one-shot runs.
	Stream *StreamReport
	// Trace is the structured event trace of a traced run
	// (RunConfig.Trace): recorded spans in deterministic order plus
	// per-kind counts. Nil when tracing was not enabled.
	Trace *TraceReport

	cdf *trace.CDF
}

// TraceSpan is one recorded protocol-decision event: what happened (Kind),
// when (virtual seconds), where (Node, and the Peer it concerned — -1 when
// the event has no counterpart node), a short free-form Note, and its
// position in the report (Seq). It re-exports obs.Span.
type TraceSpan = obs.Span

// TraceReport is a traced run's structured event record: the retained
// spans, ordered by (time, shard, record order); per-kind totals over
// every recorded event (eviction never loses a count); and the number of
// spans evicted from the bounded ring.
type TraceReport struct {
	Spans   []TraceSpan    `json:"spans"`
	Counts  map[string]int `json:"counts"`
	Dropped int            `json:"dropped,omitempty"`
}

// traceReport reads the tracer's final state into the public report.
func traceReport(t *obs.Tracer) *TraceReport {
	counts := t.Counts()
	rep := &TraceReport{
		Spans:   t.Spans(),
		Counts:  make(map[string]int, len(counts)),
		Dropped: int(t.Dropped()),
	}
	for k, n := range counts {
		rep.Counts[k] = int(n)
	}
	return rep
}

// StreamReport re-exports the streaming tracker's end-of-run report:
// per-viewer rows (NodeReport) plus lag, jitter, startup, rebuffer, and
// goodput aggregates over the run.
type StreamReport = stream.Report

// dist returns the completion-time distribution. Library-returned Results
// carry it pre-built and pre-sorted (see toResult), so concurrent quantile
// reads are safe; a Result assembled by hand gets it lazily from
// CompletionTimes on the first quantile call, which must not race.
func (r *Result) dist() *trace.CDF {
	if r.cdf == nil || r.cdf.N() != len(r.CompletionTimes) {
		r.cdf = newCDF(r.CompletionTimes)
	}
	return r.cdf
}

// newCDF builds the sorted completion-time distribution. Sorting eagerly
// (Quantile sorts lazily in place) keeps later concurrent reads race-free.
func newCDF(times map[int]float64) *trace.CDF {
	c := &trace.CDF{}
	for _, t := range times {
		c.Add(t)
	}
	if c.N() > 0 {
		c.Quantile(0)
	}
	return c
}

// Quantile returns the q-th completion-time quantile (0 <= q <= 1) by
// nearest-rank, backed by trace.CDF — the same rule every figure and sweep
// summary uses. An empty result reports 0.
func (r *Result) Quantile(q float64) float64 {
	if len(r.CompletionTimes) == 0 {
		return 0
	}
	return r.dist().Quantile(q)
}

// Median returns the median completion time.
func (r *Result) Median() float64 { return r.Quantile(0.5) }

// Worst returns the slowest node's completion time.
func (r *Result) Worst() float64 { return r.Quantile(1.0) }

// Best returns the fastest node's completion time.
func (r *Result) Best() float64 { return r.Quantile(0.0) }

// toResult converts a harness result to the public form.
func toResult(res *harness.RunResult) *Result {
	out := &Result{
		CompletionTimes: make(map[int]float64, len(res.PerNode)),
		Finished:        res.Finished,
		Cancelled:       res.Stopped,
		Elapsed:         float64(res.EndedAt),
		ControlOverhead: res.ControlOverhead(),
	}
	for id, t := range res.PerNode {
		out.CompletionTimes[int(id)] = float64(t)
	}
	out.Stream = res.Stream
	// Pre-build the distribution while single-threaded (its own copy, not
	// the harness CDF, whose in-place sort callers must not share).
	out.cdf = newCDF(out.CompletionTimes)
	return out
}

// Run executes the experiment to completion and returns per-node results:
// the one-shot compatibility wrapper over an unobserved session. Use New
// for live observation, cancellation, and the sampled time-series.
func Run(cfg RunConfig) (*Result, error) {
	cfg.SampleEvery = -1
	exp, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return exp.Run(nil)
}

// RenderFigure regenerates one of the paper's evaluation figures (4-15) at
// the given scale (1.0 = paper scale) and returns gnuplot-style text.
func RenderFigure(figure int, scale float64, seed int64) (string, error) {
	return harness.Render(figure, harness.Scale{Nodes: scale, File: scale}, seed)
}
