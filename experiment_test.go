package bulletprime_test

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bulletprime"
	"bulletprime/internal/harness"
	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// goldenRuns pins Run's per-node completion times, captured from the
// pre-session-API implementation (the buildSpec switch statements), so the
// registry + session redesign is provably bit-identical for equal seeds.
var goldenRuns = []struct {
	cfg      bulletprime.RunConfig
	overhead float64
	times    map[int]float64
}{
	{
		cfg:      bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1},
		overhead: 0.036867077379345331,
		times: map[int]float64{
			1: 12.642215794746878, 2: 12.789660605820695, 3: 12.012932521170322,
			4: 12.130504002713066, 5: 11.070072039402357, 6: 12.385343710848243,
			7: 11.627424747591888, 8: 12.834874323735965, 9: 11.376074303948585,
		},
	},
	{
		cfg: bulletprime.RunConfig{Nodes: 12, FileBytes: 1 << 20, Seed: 3,
			Protocol: bulletprime.ProtocolBitTorrent},
		overhead: 0.0073983908342408044,
		times: map[int]float64{
			1: 23.569697495116507, 2: 24.0245737363656, 3: 23.478300133290254,
			4: 49.55160054880028, 5: 76.443139550543677, 6: 34.43761598366946,
			7: 45.79373124602759, 8: 37.718445488641933, 9: 45.724132212853092,
			10: 51.078683310652011, 11: 39.715232717764152,
		},
	},
	{
		cfg: bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 5,
			Network: bulletprime.NetworkConstrained, Protocol: bulletprime.ProtocolSplitStream},
		overhead: 0,
		times: map[int]float64{
			1: 13.128803330715998, 2: 13.128803557185334, 3: 13.128803096746767,
			4: 13.128803253389851, 5: 13.12880268575994, 6: 13.128802748457996,
			7: 13.125231418581873, 8: 13.128802996059669, 9: 13.128802703526585,
		},
	},
	{
		cfg: bulletprime.RunConfig{Nodes: 14, FileBytes: 1 << 20, Seed: 2,
			DynamicBandwidth: true, Protocol: bulletprime.ProtocolBullet, Deadline: 1800},
		overhead: 0.01235856917686508,
		times: map[int]float64{
			1: 9.9754175313513169, 2: 10.153397664103366, 3: 12.930091812050515,
			4: 9.8767955939868202, 5: 10.979322972625848, 6: 11.704201591240215,
			7: 10.342137791493002, 8: 11.574820335600569, 9: 10.652642137182243,
			10: 12.000119490895512, 11: 10.607904963796299, 12: 10.167237621827422,
			13: 10.821067321772315,
		},
	},
}

// TestRunGoldenEquivalence is the redesign's compat pin: Run must produce
// bit-identical CompletionTimes to the pre-redesign façade.
func TestRunGoldenEquivalence(t *testing.T) {
	for gi, g := range goldenRuns {
		res, err := bulletprime.Run(g.cfg)
		if err != nil {
			t.Fatalf("golden %d: %v", gi, err)
		}
		if !res.Finished {
			t.Fatalf("golden %d did not finish", gi)
		}
		if res.ControlOverhead != g.overhead {
			t.Fatalf("golden %d: overhead %.17g, want %.17g", gi, res.ControlOverhead, g.overhead)
		}
		if len(res.CompletionTimes) != len(g.times) {
			t.Fatalf("golden %d: %d completions, want %d", gi, len(res.CompletionTimes), len(g.times))
		}
		for id, want := range g.times {
			if got := res.CompletionTimes[id]; got != want {
				t.Fatalf("golden %d node %d: %.17g, want %.17g", gi, id, got, want)
			}
		}
	}
}

// TestObservedSessionBitIdentical pins the observer contract: a session
// with a subscribed, per-node, fine-grained observer produces exactly the
// completion times of the unobserved one-shot Run.
func TestObservedSessionBitIdentical(t *testing.T) {
	cfg := bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1, SampleEvery: 0.5}
	plain, err := bulletprime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := exp.Subscribe(bulletprime.ObserverConfig{Every: 0.5, PerNode: true})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan int)
	go func() {
		n := 0
		for range obs.Samples() {
			n++
		}
		drained <- n
	}()
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := <-drained; n == 0 {
		t.Fatal("observer saw no samples")
	}
	if len(res.CompletionTimes) != len(plain.CompletionTimes) {
		t.Fatalf("observed %d completions, unobserved %d",
			len(res.CompletionTimes), len(plain.CompletionTimes))
	}
	for id, want := range plain.CompletionTimes {
		if got := res.CompletionTimes[id]; got != want {
			t.Fatalf("node %d: observed %.17g, unobserved %.17g", id, got, want)
		}
	}
	if len(res.Series) == 0 {
		t.Fatal("observed session recorded no time-series")
	}
	last := res.Series[len(res.Series)-1]
	if last.Completed != len(res.CompletionTimes) {
		t.Fatalf("final sample Completed = %d, want %d", last.Completed, len(res.CompletionTimes))
	}
	if last.DataBytes <= 0 || last.ControlBytes <= 0 {
		t.Fatalf("final sample byte counters implausible: data %v control %v",
			last.DataBytes, last.ControlBytes)
	}
	for i := 1; i < len(res.Series); i++ {
		if res.Series[i].Time <= res.Series[i-1].Time {
			t.Fatal("series timestamps not strictly increasing")
		}
		if res.Series[i].Completed < res.Series[i-1].Completed {
			t.Fatal("completed count decreased")
		}
	}
}

// TestSessionCancelMidFlight is the acceptance pin for context-based
// cancellation: an observer-driven run cancelled mid-flight returns a
// partial time-series and partial completions instead of blocking to the
// deadline.
func TestSessionCancelMidFlight(t *testing.T) {
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Nodes: 10, FileBytes: 16 << 20, Seed: 4, SampleEvery: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := exp.Subscribe(bulletprime.ObserverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := exp.Start(ctx); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range obs.Samples() {
		seen++
		if seen == 4 {
			cancel()
		}
	}
	res, err := exp.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("result not marked Cancelled")
	}
	if res.Finished {
		t.Fatal("cancelled run claims Finished")
	}
	if len(res.Series) == 0 {
		t.Fatal("cancelled run returned no partial time-series")
	}
	if res.Elapsed <= 0 || res.Elapsed >= 3600 {
		t.Fatalf("cancelled run elapsed %v, want mid-flight", res.Elapsed)
	}
	// A 16 MB file on a 6 Mbps access link cannot finish by ~t=2.5s, so the
	// partial completion set must be partial indeed.
	if len(res.CompletionTimes) == 9 {
		t.Fatal("cancelled run reports a full completion set")
	}
}

// oracleSystem is the third-party protocol for the registry round-trip
// test: every receiver "completes" at a deterministic offset without
// moving any bytes.
type oracleSystem struct {
	rig        *harness.Rig
	members    []netem.NodeID
	onComplete func(netem.NodeID)
	done       int
	doneAt     sim.Time
}

func (s *oracleSystem) Start() {
	for i, id := range s.members[1:] {
		id := id
		s.rig.Eng.After(float64(i+1), func() {
			s.done++
			s.onComplete(id)
			if s.Complete() {
				s.doneAt = s.rig.Eng.Now()
			}
		})
	}
}

func (s *oracleSystem) Complete() bool   { return s.done >= len(s.members)-1 }
func (s *oracleSystem) DoneAt() sim.Time { return s.doneAt }

func init() {
	bulletprime.RegisterProtocol("test-oracle", func(ctx bulletprime.BuildContext) bulletprime.System {
		return &oracleSystem{rig: ctx.Rig, members: ctx.Members, onComplete: ctx.OnComplete}
	})
	bulletprime.RegisterNetwork("test-uniform", func(nodes int) bulletprime.TopologyFn {
		return func(rng *sim.RNG) *netem.Topology {
			cfg := netem.ModelNetConfig{
				N:           nodes,
				AccessBW:    netem.Mbps(4),
				AccessDelay: netem.MS(2),
				CoreBW:      netem.Mbps(5),
				CoreDelayLo: netem.MS(5),
				CoreDelayHi: netem.MS(10),
			}
			return cfg.Build(rng)
		}
	})
}

// TestThirdPartyRegistryRoundTrip is the acceptance pin for the open
// registries: a protocol and a network registered from outside the package
// run through New without any internal switch knowing about them.
func TestThirdPartyRegistryRoundTrip(t *testing.T) {
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Protocol:  "test-oracle",
		Network:   "test-uniform",
		Nodes:     10,
		FileBytes: 1 << 20,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("oracle run did not finish")
	}
	if len(res.CompletionTimes) != 9 {
		t.Fatalf("%d completions, want 9", len(res.CompletionTimes))
	}
	// The oracle completes receiver i at t=i+1 exactly.
	if res.Worst() != 9 || res.Best() != 1 {
		t.Fatalf("oracle times best %v worst %v, want 1 and 9", res.Best(), res.Worst())
	}
	// A real protocol must also run on the registered third-party network.
	res2, err := bulletprime.Run(bulletprime.RunConfig{
		Network: "test-uniform", Nodes: 10, FileBytes: 1 << 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Finished {
		t.Fatal("bulletprime on third-party network did not finish")
	}
	// Protocols() is what the "unknown protocol" error prints: it must list
	// every name New accepts, the sharded engine's workload included.
	listed := bulletprime.Protocols()
	for _, p := range []bulletprime.Protocol{"test-oracle", bulletprime.ProtocolBulletPrime,
		bulletprime.ProtocolBullet, bulletprime.ProtocolBitTorrent, bulletprime.ProtocolSplitStream,
		bulletprime.ProtocolStream, bulletprime.ProtocolScalefill} {
		if !slices.Contains(listed, p) {
			t.Errorf("Protocols() = %v does not list %q, which New accepts", listed, p)
		}
	}
	if !slices.IsSorted(listed) {
		t.Errorf("Protocols() = %v is not sorted", listed)
	}
}

// TestSweepStreamPerCellProgress exercises the streaming sweep: results
// arrive per cell with correct indices, the observe callback can subscribe
// to individual cells, and the reassembled results match the blocking
// Sweep wrapper bit-for-bit.
func TestSweepStreamPerCellProgress(t *testing.T) {
	cfg := bulletprime.SweepConfig{
		Base:  bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Parallel: 2},
		Seeds: []int64{1, 2},
		Protocols: []bulletprime.Protocol{
			bulletprime.ProtocolBulletPrime, bulletprime.ProtocolBitTorrent,
		},
	}
	sampleCount := make(chan int, 16)
	ch, err := bulletprime.SweepStream(context.Background(), cfg,
		func(cell bulletprime.SweepCell, exp *bulletprime.Experiment) {
			obs, err := exp.Subscribe(bulletprime.ObserverConfig{Every: 2})
			if err != nil {
				t.Error(err)
				return
			}
			go func() {
				n := 0
				for range obs.Samples() {
					n++
				}
				sampleCount <- n
			}()
		})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*bulletprime.SweepRun, 4)
	n := 0
	for r := range ch {
		r := r
		if r.Index < 0 || r.Index >= 4 || got[r.Index] != nil {
			t.Fatalf("bad or duplicate index %d", r.Index)
		}
		got[r.Index] = &r
		n++
	}
	if n != 4 {
		t.Fatalf("streamed %d cells, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if c := <-sampleCount; c == 0 {
			t.Fatal("a cell's observer saw no samples")
		}
	}
	plain, err := bulletprime.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range plain {
		if r.Protocol != got[i].Protocol || r.Seed != got[i].Seed {
			t.Fatalf("cell %d identity mismatch", i)
		}
		if len(r.Result.CompletionTimes) != len(got[i].Result.CompletionTimes) {
			t.Fatalf("cell %d completion counts differ", i)
		}
		for id, at := range r.Result.CompletionTimes {
			if got[i].Result.CompletionTimes[id] != at {
				t.Fatalf("cell %d node %d: stream %v, sweep %v",
					i, id, got[i].Result.CompletionTimes[id], at)
			}
		}
	}
}

// TestSessionStateErrors pins the session lifecycle contract.
func TestSessionStateErrors(t *testing.T) {
	cfg := bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1}
	exp, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Wait(); err == nil {
		t.Fatal("Wait before Start succeeded")
	}
	if err := exp.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := exp.Start(context.Background()); err == nil {
		t.Fatal("double Start succeeded")
	}
	if _, err := exp.Subscribe(bulletprime.ObserverConfig{}); err == nil {
		t.Fatal("Subscribe after Start succeeded")
	}
	if _, err := exp.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelValidation pins the satellite fix: negative Parallel is a
// loud error everywhere instead of being silently ignored by single runs.
func TestParallelValidation(t *testing.T) {
	bad := bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Parallel: -1}
	if _, err := bulletprime.Run(bad); err == nil {
		t.Fatal("Run accepted negative Parallel")
	}
	if _, err := bulletprime.New(bad); err == nil {
		t.Fatal("New accepted negative Parallel")
	}
	if _, err := bulletprime.Sweep(bulletprime.SweepConfig{Base: bad}); err == nil {
		t.Fatal("Sweep accepted negative Parallel")
	}
}

// TestSampleEveryDisablesSeries pins the public sampling opt-out: a
// negative SampleEvery session records no Result.Series, while subscribed
// observers still stream.
func TestSampleEveryDisablesSeries(t *testing.T) {
	cfg := bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1, SampleEvery: -1}
	exp, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := exp.Subscribe(bulletprime.ObserverConfig{Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan int)
	go func() {
		n := 0
		for range obs.Samples() {
			n++
		}
		drained <- n
	}()
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := <-drained; n == 0 {
		t.Fatal("observer saw no samples with SampleEvery < 0")
	}
	if len(res.Series) != 0 {
		t.Fatalf("SampleEvery < 0 still recorded %d series samples", len(res.Series))
	}
	if !res.Finished {
		t.Fatal("run did not finish")
	}

	// Without observers, a negative-SampleEvery session records nothing
	// and matches the unobserved wrapper bit-for-bit.
	exp2, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := exp2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Series) != 0 {
		t.Fatal("unobserved disabled session recorded a series")
	}
	plain, err := bulletprime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range plain.CompletionTimes {
		if res2.CompletionTimes[id] != want {
			t.Fatalf("node %d: %v vs wrapper %v", id, res2.CompletionTimes[id], want)
		}
	}
}

// TestLoadScenarioErrorPaths covers the façade loader's failure modes:
// missing file, malformed JSON, and a trace_file reference that dangles.
func TestLoadScenarioErrorPaths(t *testing.T) {
	if _, err := bulletprime.LoadScenario(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file loaded")
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x", "events": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := bulletprime.LoadScenario(bad); err == nil {
		t.Fatal("malformed JSON loaded")
	}

	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"name": "x", "events": [{"kind": "setbw", "bogus_key": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := bulletprime.LoadScenario(unknown); err == nil {
		t.Fatal("unknown event field loaded")
	}

	dangling := filepath.Join(dir, "dangling.json")
	doc := `{"name": "x", "events": [
		{"kind": "trace", "links": {"frac": 0.5}, "trace_file": "no-such-trace.json"}
	]}`
	if err := os.WriteFile(dangling, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := bulletprime.LoadScenario(dangling); err == nil {
		t.Fatal("dangling trace_file reference loaded")
	}

	// The healthy path still works, with the trace resolved relative to
	// the scenario file's directory.
	tracePath := filepath.Join(dir, "t.trace")
	if err := os.WriteFile(tracePath, []byte("duration 10\n0 1000\n5 500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.json")
	doc = `{"name": "x", "events": [
		{"kind": "trace", "links": {"frac": 0.5}, "trace_file": "t.trace"}
	]}`
	if err := os.WriteFile(good, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := bulletprime.LoadScenario(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Compile(10); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioAnnotationsObserved checks that scenario events surface as
// timestamped annotations on the session's result and stream.
func TestScenarioAnnotationsObserved(t *testing.T) {
	sc, err := bulletprime.LoadScenario("internal/scenario/testdata/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Nodes: 14, FileBytes: 1 << 20, Scenario: sc, Seed: 1, Deadline: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotations) == 0 {
		t.Fatal("scenario run produced no annotations")
	}
	for i, a := range res.Annotations {
		if a.Text == "" {
			t.Fatalf("annotation %d has no text", i)
		}
		if i > 0 && a.At < res.Annotations[i-1].At {
			t.Fatal("annotations out of time order")
		}
	}
	// Flash-crowd wave starts are annotated by the harness.
	foundWave := false
	for _, a := range res.Annotations {
		if len(a.Text) >= 11 && a.Text[:11] == "flash-crowd" {
			foundWave = true
		}
	}
	if !foundWave {
		t.Fatal("no flash-crowd wave annotation")
	}
}

// TestSweepReps pins the repetition fan-out through the facade: Reps
// multiplies the cross product with RepSeed-derived seeds, repetition 0
// is bit-identical to the unrepeated sweep, and higher repetitions are
// genuinely different runs.
func TestSweepReps(t *testing.T) {
	base := bulletprime.SweepConfig{
		Base:  bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Parallel: 2},
		Seeds: []int64{1},
	}
	plain, err := bulletprime.Sweep(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 {
		t.Fatalf("unrepeated sweep: %d cells", len(plain))
	}

	repped := base
	repped.Reps = 3
	runs, err := bulletprime.Sweep(repped)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("reps=3 sweep: %d cells, want 3", len(runs))
	}
	for i, r := range runs {
		if r.Rep != i || r.Seed != 1 {
			t.Fatalf("cell %d: rep %d seed %d, want rep %d seed 1 (base seed, not derived)", i, r.Rep, r.Seed, i)
		}
	}
	// Repetition 0 is the unrepeated run, bit for bit.
	if len(runs[0].Result.CompletionTimes) != len(plain[0].Result.CompletionTimes) {
		t.Fatal("rep 0 completion count differs from the unrepeated sweep")
	}
	for id, at := range plain[0].Result.CompletionTimes {
		if runs[0].Result.CompletionTimes[id] != at {
			t.Fatalf("rep 0 node %d: %v vs unrepeated %v", id, runs[0].Result.CompletionTimes[id], at)
		}
	}
	// Higher repetitions ran under different derived seeds.
	if runs[1].Result.Median() == runs[0].Result.Median() && runs[2].Result.Median() == runs[0].Result.Median() {
		t.Fatal("every repetition produced identical medians; derived seeds not applied")
	}
}
