package bulletprime_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"bulletprime"
	"bulletprime/internal/core"
	"bulletprime/internal/harness"
	"bulletprime/internal/netem"
	"bulletprime/internal/obs"
	"bulletprime/internal/proto"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
)

// harnessSpec is a copy of benchmark/trace.go's harnessSpec, which lowers a
// façade configuration to the harness spec the façade's unexported buildSpec
// builds, so that the traced benchmark run can hang its own hooks on
// harness.RunSpec. TestSessionMatchesHarnessSpec shows that a session
// already hands out everything those hooks read; the copy and this test go
// once benchmark/ drives the session instead.
func harnessSpec(cfg bulletprime.RunConfig) (harness.SweepSpec, error) {
	exp, err := bulletprime.New(cfg)
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
	case bulletprime.NetworkClusteredCompact:
		spec.TopoFn = harness.ClusteredTopologyCompact(cfg.Nodes, 0)
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
		spec.System = string(cfg.Protocol)
	}
	if cfg.DynamicBandwidth {
		spec.Dynamics = harness.SyntheticBandwidthChanges(20)
	}
	if cfg.Scenario != nil {
		if spec.Scenario, err = cfg.Scenario.Compile(cfg.Nodes); err != nil {
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

// reading is what the traced benchmark run reads at a slice boundary, and
// what a session's Sample carries of it.
type reading struct {
	At                      float64
	Layers                  obs.LayerCounters
	ControlBytes, DataBytes float64
	Duplicates              int
}

func sampleReading(s bulletprime.Sample) reading {
	return reading{s.Time, s.Layers, s.ControlBytes, s.DataBytes, s.DuplicateBlocks}
}

// rigPart is one engine with the network and runtime on it: a whole
// sequential rig, or one shard's slot.
type rigPart struct {
	eng *sim.Engine
	net *netem.Network
	rt  *proto.Runtime
}

// traceSpec runs spec as benchmark/trace.go's traceCell does: hooks at
// TickEvery slice that read the raw engine, network and runtime fields of
// every rig part, summed in part order. It returns the result, one reading
// per tick, and the reading at the result.
func traceSpec(spec harness.SweepSpec, slice float64) (*harness.RunResult, []reading, reading) {
	var (
		parts []rigPart
		sys   harness.System
		ticks []reading
		end   reading
	)
	snap := func() (r reading) {
		for _, p := range parts {
			r.At = max(r.At, float64(p.eng.Now()))
			r.Layers.Events += p.eng.Executed
			r.Layers.Compactions += p.eng.Compactions
			r.Layers.Recomputes += p.net.Recomputes
			r.Layers.RatesRecomputed += p.net.FlowRatesRecomputed
			r.Layers.RatesSkipped += p.net.FlowRatesSkipped
			// trace.go does not read this one yet; the block is compared whole.
			r.Layers.RatesReused += p.net.FlowRatesReused
			r.Layers.BytesServed += p.net.BytesServed
			r.Layers.Messages += p.rt.MessagesDelivered
			r.ControlBytes += p.rt.ControlBytes
			r.DataBytes += p.rt.DataBytes
		}
		r.Duplicates = harness.SystemDuplicates(sys)
		return r
	}
	hooks := &harness.Hooks{TickEvery: slice}
	if spec.Engine == harness.EngineSharded {
		hooks.OnShardStart = func(rig *harness.ShardedRig, s harness.ShardSystem) {
			for _, slot := range rig.Slots {
				parts = append(parts, rigPart{slot.Eng, slot.Net, slot.RT})
			}
			sys = s
		}
		hooks.OnShardTick = func(*harness.ShardedRig, harness.ShardSystem) { ticks = append(ticks, snap()) }
	} else {
		hooks.OnStart = func(rig *harness.Rig, s harness.System) {
			parts = []rigPart{{rig.Eng, rig.Net, rig.RT}}
			sys = s
		}
		hooks.OnTick = func(*harness.Rig, harness.System) { ticks = append(ticks, snap()) }
	}
	hooks.OnResult = func(*harness.RunResult) { end = snap() }
	spec.Hooks = hooks
	return harness.RunSpec(spec), ticks, end
}

// portShape is one benchmark cell and its traced slice width.
type portShape struct {
	name  string
	cfg   bulletprime.RunConfig
	slice float64
}

// portShapes are the smallest cells of the five benchmark workloads. The
// churn cell runs Bullet′ instead of the benchmark's own flow load, which
// this module does not register.
func portShapes() []portShape {
	sweep := func(p bulletprime.Protocol) bulletprime.RunConfig {
		return bulletprime.RunConfig{
			Protocol: p, Nodes: 12, FileBytes: 2e6, Network: bulletprime.NetworkModelNet,
			Strategy: bulletprime.RarestRandom, Deadline: 3600, Seed: 4,
		}
	}
	churn := scenario.New("port-churn-netem",
		scenario.TraceReplay(1, scenario.LinkSet{Frac: 0.1, Dir: "in"}, &scenario.Trace{
			Times:    []float64{0, 3, 5, 9, 12},
			Values:   []float64{3000, 400, 3000, 1200, 3000},
			Duration: 15,
		}, true),
		scenario.Churn(0, 0.5, scenario.Dist{Kind: "exp", Mean: 30}))
	return []portShape{
		{"fig5-dynamic", bulletprime.RunConfig{
			Protocol: bulletprime.ProtocolBulletPrime, Nodes: 20, FileBytes: 4e6,
			Network: bulletprime.NetworkModelNet, DynamicBandwidth: true,
			Strategy: bulletprime.RarestRandom, Deadline: 10800, Seed: 1,
		}, 1},
		{"stream-live", bulletprime.RunConfig{
			Protocol: bulletprime.ProtocolBulletPrime, Nodes: 60, Network: bulletprime.NetworkModelNetClean,
			Stream:   &bulletprime.StreamOptions{BitrateBps: 65536, Duration: 10, Drain: 20},
			Strategy: bulletprime.RarestRandom, Seed: 2,
		}, 1},
		{"churn-netem", bulletprime.RunConfig{
			Protocol: bulletprime.ProtocolBulletPrime, Nodes: 200, FileBytes: 1e6,
			Network: bulletprime.NetworkClustered, Scenario: churn, Deadline: 10, Seed: 3,
		}, 0.5},
		{"sharded-fill", bulletprime.RunConfig{
			Protocol: bulletprime.ProtocolScalefill, Nodes: 2500, FileBytes: 1.5e6,
			Network: bulletprime.NetworkClusteredCompact, Engine: bulletprime.EngineSharded,
			Shards: 8, Deadline: 12, Seed: 5,
		}, 0.5},
		{"fig4-sweep/bulletprime", sweep(bulletprime.ProtocolBulletPrime), 1},
		{"fig4-sweep/bullet", sweep(bulletprime.ProtocolBullet), 1},
		{"fig4-sweep/bittorrent", sweep(bulletprime.ProtocolBitTorrent), 1},
		{"fig4-sweep/splitstream", sweep(bulletprime.ProtocolSplitStream), 1},
	}
}

// sessionSeries runs cfg as a session sampled every slice, with one
// subscriber draining the stream on its own goroutine, and checks that the
// subscriber saw the tail of Result.Series the drop-oldest contract allows.
func sessionSeries(t *testing.T, cfg bulletprime.RunConfig, slice float64) *bulletprime.Result {
	t.Helper()
	cfg.SampleEvery = slice
	exp, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := exp.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	var seen []bulletprime.Sample
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range o.Samples() {
			seen = append(seen, s)
		}
	}()
	res, err := exp.Run(context.Background())
	<-done
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Series)
	if len(seen)+int(o.Dropped()) != n {
		t.Fatalf("subscriber saw %d samples and dropped %d of a %d-sample series", len(seen), o.Dropped(), n)
	}
	for i, s := range seen {
		if got, want := sampleReading(s), sampleReading(res.Series[n-len(seen)+i]); got != want {
			t.Fatalf("subscriber sample %d: %+v, series holds %+v", i, got, want)
		}
	}
	return res
}

// TestSessionMatchesHarnessSpec runs the smallest cell of every benchmark
// workload two ways: as a sampled session, and through harnessSpec and
// RunSpec under hooks that read the layers' raw counters at the same
// cadence. The results must be identical, and every sample must carry the
// readings taken at its slice boundary: the closing sample, the reading at
// the result.
func TestSessionMatchesHarnessSpec(t *testing.T) {
	for _, sh := range portShapes() {
		t.Run(sh.name, func(t *testing.T) {
			res := sessionSeries(t, sh.cfg, sh.slice)
			spec, err := harnessSpec(sh.cfg)
			if err != nil {
				t.Fatal(err)
			}
			hres, ticks, end := traceSpec(spec, sh.slice)
			if hres.Err != nil {
				t.Fatal(hres.Err)
			}

			if res.Elapsed != float64(hres.EndedAt) || res.Finished != hres.Finished {
				t.Fatalf("session ended at %v (finished %v), harnessSpec at %v (finished %v)",
					res.Elapsed, res.Finished, float64(hres.EndedAt), hres.Finished)
			}
			if len(res.CompletionTimes) != len(hres.PerNode) {
				t.Fatalf("%d completions, harnessSpec %d", len(res.CompletionTimes), len(hres.PerNode))
			}
			for id, at := range hres.PerNode {
				if got, ok := res.CompletionTimes[int(id)]; !ok || got != float64(at) {
					t.Fatalf("node %d completed at %v, harnessSpec %v", id, got, float64(at))
				}
			}
			a, _ := json.Marshal(res.Stream)
			b, _ := json.Marshal(hres.Stream)
			if !bytes.Equal(a, b) {
				t.Fatalf("stream reports differ:\n%s\n%s", a, b)
			}

			series := res.Series
			if n := len(series) - len(ticks); n != 0 && n != 1 {
				t.Fatalf("%d samples for %d ticks", len(series), len(ticks))
			}
			for i, want := range ticks {
				if got := sampleReading(series[i]); got != want {
					t.Fatalf("slice %d:\nsample     %+v\nharnessSpec %+v", i, got, want)
				}
			}
			if got := sampleReading(series[len(series)-1]); got != end {
				t.Fatalf("at the end:\nsample     %+v\nharnessSpec %+v", got, end)
			}
			if end.Layers.Events == 0 || end.Layers.Recomputes == 0 || end.DataBytes == 0 {
				t.Fatalf("a run that did nothing: %+v", end)
			}
		})
	}
}
