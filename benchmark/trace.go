package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"bulletprime"
	"bulletprime/internal/core"
	"bulletprime/internal/harness"
	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

// span is one timed interval of the traced run. Spans are recorded from this
// package only, around its calls into each layer; the layers themselves are
// not instrumented.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for the root span
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	StartS float64            `json:"start_s"`
	EndS   float64            `json:"end_s"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps a run's spans in memory until the run ends. It is safe for
// the sweep's two concurrent cells.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, StartS: t.now()})
	return id
}

// end closes span id, attaching the counter deltas observed over it.
func (t *tracer) end(id int, counts map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndS = t.now()
	t.spans[id-1].Counts = counts
}

// rename retitles an open span.
func (t *tracer) rename(id int, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Name = name
}

// timed records fn as one span.
func (t *tracer) timed(parent int, name string, fn func()) {
	id := t.begin(parent, name)
	fn()
	t.end(id, nil)
}

// durations returns the length in seconds of every span whose name is name,
// or starts with it when name ends in a dot.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name || (strings.HasSuffix(name, ".") && strings.HasPrefix(s.Name, name)) {
			out = append(out, s.EndS-s.StartS)
		}
	}
	return out
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// counters are the layers' existing public counters, read at span boundaries.
type counters struct {
	events, compactions                       uint64
	recomputes, ratesRecomputed, ratesSkipped uint64
	bytesServed                               float64
	messages                                  uint64
	controlBytes, dataBytes                   float64
}

// rigPart is one engine with the network and runtime on it: a whole
// sequential rig, or one shard's slot.
type rigPart struct {
	eng *sim.Engine
	net *netem.Network
	rt  *proto.Runtime
}

func (c *counters) addPart(p rigPart) {
	st := p.eng.Stats()
	c.events += st.Executed
	c.compactions += st.Compactions
	c.recomputes += p.net.Recomputes
	c.ratesRecomputed += p.net.FlowRatesRecomputed
	c.ratesSkipped += p.net.FlowRatesSkipped
	c.bytesServed += p.net.BytesServed
	c.messages += p.rt.MessagesDelivered
	c.controlBytes += p.rt.ControlBytes
	c.dataBytes += p.rt.DataBytes
}

func (c *counters) add(o counters) {
	c.events += o.events
	c.compactions += o.compactions
	c.recomputes += o.recomputes
	c.ratesRecomputed += o.ratesRecomputed
	c.ratesSkipped += o.ratesSkipped
	c.bytesServed += o.bytesServed
	c.messages += o.messages
	c.controlBytes += o.controlBytes
	c.dataBytes += o.dataBytes
}

// since returns the deltas from before to c, as a span's counts.
func (c counters) since(before counters) map[string]float64 {
	return map[string]float64{
		"sim.events":             float64(c.events - before.events),
		"netem.recomputes":       float64(c.recomputes - before.recomputes),
		"netem.rates_recomputed": float64(c.ratesRecomputed - before.ratesRecomputed),
		"netem.rates_skipped":    float64(c.ratesSkipped - before.ratesSkipped),
		"proto.messages":         float64(c.messages - before.messages),
	}
}

// harnessSpec lowers a façade configuration to the harness spec the façade
// itself would build (bulletprime.buildSpec is unexported), so the traced run
// can drive the identical experiment through harness.RunSpec with its own
// hooks. The traced run's digest must equal the façade run's, which is what
// keeps this copy honest. Only the presets the workloads use are mapped.
func harnessSpec(tr *tracer, parent int, cfg bulletprime.RunConfig) (harness.SweepSpec, error) {
	var exp *bulletprime.Experiment
	var err error
	tr.timed(parent, "facade.new", func() { exp, err = bulletprime.New(cfg) })
	if err != nil {
		return harness.SweepSpec{}, err
	}
	cfg = exp.Config() // normalized: defaults filled, stream geometry derived
	spec := harness.SweepSpec{
		Label:    fmt.Sprintf("%s/%s/seed%d", cfg.Protocol, cfg.Network, cfg.Seed),
		Seed:     cfg.Seed,
		Workload: harness.Workload{FileBytes: cfg.FileBytes, BlockSize: cfg.BlockSize},
		CoreMut: func(c *core.Config) {
			c.Strategy = cfg.Strategy
			c.StaticPeers = cfg.StaticPeers
			c.StaticOutstanding = cfg.StaticOutstanding
			c.Encoded = cfg.Encoded
		},
		Deadline: sim.Time(cfg.Deadline),
		Engine:   cfg.Engine,
		Shards:   cfg.Shards,
		Workers:  cfg.ShardWorkers,
	}
	switch cfg.Network {
	case bulletprime.NetworkModelNet:
		spec.TopoFn = harness.ModelNetTopology(cfg.Nodes)
	case bulletprime.NetworkModelNetClean:
		spec.TopoFn = harness.LosslessModelNetTopology(cfg.Nodes)
	case bulletprime.NetworkClustered:
		spec.TopoFn = harness.ClusteredTopology(cfg.Nodes, 0)
	case compactPreset:
		spec.TopoFn = compactTopology(cfg.Nodes)
	default:
		return spec, fmt.Errorf("no harness topology mapped for network %q", cfg.Network)
	}
	switch cfg.Protocol {
	case bulletprime.ProtocolBulletPrime:
		spec.System = harness.KindBulletPrime.String()
	case bulletprime.ProtocolBullet:
		spec.System = harness.KindBullet.String()
	case bulletprime.ProtocolBitTorrent:
		spec.System = harness.KindBitTorrent.String()
	case bulletprime.ProtocolSplitStream:
		spec.System = harness.KindSplitStream.String()
	default:
		// Registered and sharded protocols keep their façade name.
		spec.System = string(cfg.Protocol)
	}
	if cfg.DynamicBandwidth {
		spec.Dynamics = harness.SyntheticBandwidthChanges(20)
	}
	if cfg.Scenario != nil {
		tr.timed(parent, "scenario.compile", func() { spec.Scenario, err = cfg.Scenario.Compile(cfg.Nodes) })
		if err != nil {
			return spec, err
		}
	}
	if s := cfg.Stream; s != nil {
		spec.Stream = &harness.StreamSpec{
			BitrateBps: s.BitrateBps, Duration: s.Duration,
			PlayoutDepth: s.PlayoutDepth, Warmup: s.Warmup, Drain: s.Drain,
		}
	}
	return spec, nil
}

// cellTrace is what one traced run yields beyond its spans.
type cellTrace struct {
	res    *bulletprime.Result
	totals counters
	// duplicates is the system's duplicate-block count at the end.
	duplicates int
	dataBytes  float64
	// blockSize and contentBytes are the normalized workload geometry.
	blockSize, contentBytes float64
}

// traceCell drives one configuration through harness.RunSpec under this
// package's own hooks and records, under a "run" span:
//
//	facade.new        bulletprime.New: validation, defaults, spec build
//	scenario.compile  Scenario.Compile, when the run has a scenario
//	harness.topology  the spec's TopoFn
//	harness.build     topology return to OnStart/OnShardStart: rig, scenario
//	                  apply, system build
//	sim.advance.<k>   one slice of virtual time between ticks, carrying the
//	                  layer counter deltas observed over it
//	harness.result    from the last instant the virtual clock moved to
//	                  RunSpec's return
//
// Hooks only read state, so the result is bit-identical to the façade's.
func traceCell(tr *tracer, parent int, cfg bulletprime.RunConfig, slice float64) (cellTrace, error) {
	run := tr.begin(parent, "run")
	defer tr.end(run, nil)
	spec, err := harnessSpec(tr, run, cfg)
	if err != nil {
		return cellTrace{}, err
	}

	ct := cellTrace{blockSize: spec.Workload.BlockSize, contentBytes: spec.Workload.FileBytes}
	var (
		parts  []rigPart // the rig: one part, or one per shard
		open   int       // the span currently open
		k      int       // index of the open sim.advance slice
		before counters  // the counters when the open slice began
		at     sim.Time  // the virtual clock when the open slice began
		dups   = func() int { return 0 }
	)
	snap := func() (c counters, now sim.Time) {
		for _, p := range parts {
			c.addPart(p)
			now = max(now, p.eng.Now())
		}
		return c, now
	}
	topo := spec.TopoFn
	spec.TopoFn = func(rng *sim.RNG) *netem.Topology {
		var t *netem.Topology
		tr.timed(run, "harness.topology", func() { t = topo(rng) })
		open = tr.begin(run, "harness.build")
		return t
	}
	start := func() {
		tr.end(open, nil)
		open = tr.begin(run, "sim.advance.0")
	}
	tick := func() {
		now, clock := snap()
		tr.end(open, now.since(before))
		before, at = now, clock
		k++
		open = tr.begin(run, fmt.Sprintf("sim.advance.%d", k))
	}
	hooks := &harness.Hooks{TickEvery: slice}
	if spec.Engine == harness.EngineSharded {
		hooks.OnShardStart = func(rig *harness.ShardedRig, _ harness.ShardSystem) {
			for _, s := range rig.Slots {
				parts = append(parts, rigPart{s.Eng, s.Net, s.RT})
			}
			start()
		}
		hooks.OnShardTick = func(*harness.ShardedRig, harness.ShardSystem) { tick() }
	} else {
		hooks.OnStart = func(rig *harness.Rig, sys harness.System) {
			parts = []rigPart{{rig.Eng, rig.Net, rig.RT}}
			dups = func() int { return harness.SystemDuplicates(sys) }
			start()
		}
		hooks.OnTick = func(*harness.Rig, harness.System) { tick() }
	}
	hooks.OnResult = func(res *harness.RunResult) {
		ct.totals, _ = snap()
		ct.duplicates = dups()
		if k > 0 && res.EndedAt <= at {
			// The clock has not moved since the last tick: this interval is
			// result assembly, not simulation.
			tr.rename(open, "harness.result")
			return
		}
		tr.end(open, ct.totals.since(before))
		open = tr.begin(run, "harness.result")
	}
	spec.Hooks = hooks
	hres := harness.RunSpec(spec)
	if hres.Err != nil {
		return ct, hres.Err
	}
	// The façade's result conversion, which the traced path must redo to be
	// judged by the same checks.
	res := &bulletprime.Result{
		CompletionTimes: make(map[int]float64, len(hres.PerNode)),
		Finished:        hres.Finished,
		Elapsed:         float64(hres.EndedAt),
		ControlOverhead: hres.ControlOverhead(),
		Stream:          hres.Stream,
	}
	for id, t := range hres.PerNode {
		res.CompletionTimes[int(id)] = float64(t)
	}
	tr.end(open, nil)
	ct.res = res
	ct.dataBytes = hres.DataBytes
	return ct, nil
}
