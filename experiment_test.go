package bulletprime_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"bulletprime"
	"bulletprime/internal/golden"
	"bulletprime/internal/harness"
	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// goldenRuns are the configs whose per-node completion times and control
// overhead are pinned, captured from the pre-session-API implementation (the
// buildSpec switch statements), so the registry + session redesign is
// provably bit-identical for equal seeds.
var goldenRuns = []bulletprime.RunConfig{
	{Nodes: 10, FileBytes: 1 << 20, Seed: 1},
	{Nodes: 12, FileBytes: 1 << 20, Seed: 3, Protocol: bulletprime.ProtocolBitTorrent},
	{Nodes: 10, FileBytes: 1 << 20, Seed: 5, Network: bulletprime.NetworkConstrained,
		Protocol: bulletprime.ProtocolSplitStream},
	{Nodes: 14, FileBytes: 1 << 20, Seed: 2, DynamicBandwidth: true, Protocol: bulletprime.ProtocolBullet,
		Deadline: 1800},
}

// TestRunGoldenEquivalence is the redesign's compat pin: Run must produce
// bit-identical CompletionTimes to the pre-redesign façade.
func TestRunGoldenEquivalence(t *testing.T) {
	float := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for gi, cfg := range goldenRuns {
		res, err := bulletprime.Run(cfg)
		if err != nil {
			t.Fatalf("golden %d: %v", gi, err)
		}
		if !res.Finished {
			t.Fatalf("golden %d did not finish", gi)
		}
		pin := fmt.Sprintf("%s/%d/", t.Name(), gi)
		golden.Check(t, pin+"overhead", float(res.ControlOverhead))
		golden.Check(t, pin+"completions", strconv.Itoa(len(res.CompletionTimes)))
		for id := range cfg.Nodes {
			if at, ok := res.CompletionTimes[id]; ok {
				golden.Check(t, fmt.Sprintf("%snode%d", pin, id), float(at))
			}
		}
	}
}

// TestObservedSessionBitIdentical pins the observer contract: a session
// with a subscribed observer at a fine cadence produces exactly the
// completion times of the unobserved one-shot Run, and a live stream exactly
// its StreamReport. The stream rows sample at cadences that once split a
// viewer's playhead sum into different float increments.
func TestObservedSessionBitIdentical(t *testing.T) {
	live := func(seed int64) bulletprime.RunConfig {
		return bulletprime.RunConfig{Nodes: 40, Seed: seed, Strategy: bulletprime.RarestRandom,
			Stream: &bulletprime.StreamOptions{BitrateBps: 64 * 1024, Duration: 30}}
	}
	for _, tc := range []struct {
		name  string
		cfg   bulletprime.RunConfig
		every float64
	}{
		{"file", bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1}, 0.5},
		{"stream seed 1 every 0.37s", live(1), 0.37},
		{"stream seed 4 every 1s", live(4), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.SampleEvery = tc.every
			checkObservedBitIdentical(t, cfg)
		})
	}
}

func checkObservedBitIdentical(t *testing.T, cfg bulletprime.RunConfig) {
	t.Helper()
	plain, err := bulletprime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := exp.Subscribe()
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
	observed, _ := json.Marshal(res.Stream)
	unobserved, _ := json.Marshal(plain.Stream)
	if !bytes.Equal(observed, unobserved) {
		t.Fatalf("stream report observed\n%s\nunobserved\n%s", observed, unobserved)
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
	obs, err := exp.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		seen := 0
		for range obs.Samples() {
			seen++
			if seen == 4 {
				cancel()
			}
		}
	}()
	res, err := exp.Run(ctx)
	<-drained
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

// TestSessionCancelBeforeRun: a context cancelled before Run stops the run
// at its first poll; Run returns the Cancelled result and closes every
// observer stream.
func TestSessionCancelBeforeRun(t *testing.T) {
	exp, err := bulletprime.New(bulletprime.RunConfig{Nodes: 10, FileBytes: 16 << 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := exp.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := exp.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.Finished {
		t.Fatalf("cancelled run: Cancelled %v, Finished %v", res.Cancelled, res.Finished)
	}
	for range obs.Samples() {
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
		bulletprime.ProtocolScalefill} {
		if !slices.Contains(listed, p) {
			t.Errorf("Protocols() = %v does not list %q, which New accepts", listed, p)
		}
	}
	if !slices.IsSorted(listed) {
		t.Errorf("Protocols() = %v is not sorted", listed)
	}
}

// TestSweepStreamMatchesSweep exercises the streaming sweep: results
// arrive once per cell with correct indices, and the reassembled results
// match the blocking Sweep wrapper bit-for-bit.
func TestSweepStreamMatchesSweep(t *testing.T) {
	cfg := bulletprime.SweepConfig{
		Base:  bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Parallel: 2},
		Seeds: []int64{1, 2},
		Protocols: []bulletprime.Protocol{
			bulletprime.ProtocolBulletPrime, bulletprime.ProtocolBitTorrent,
		},
	}
	ch, err := bulletprime.SweepStream(context.Background(), cfg)
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
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res, err := exp.Run(context.Background()); err == nil || res != nil {
		t.Fatalf("second Run: %v, %v; want no result and an error", res, err)
	}
	if _, err := exp.Subscribe(); err == nil {
		t.Fatal("Subscribe after Run succeeded")
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
// observers still stream, one sample per virtual second.
func TestSampleEveryDisablesSeries(t *testing.T) {
	cfg := bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1, SampleEvery: -1}
	exp, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := exp.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan []bulletprime.Sample)
	go func() {
		var got []bulletprime.Sample
		for s := range obs.Samples() {
			got = append(got, s)
		}
		drained <- got
	}()
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := <-drained
	if len(got) < 2 {
		t.Fatalf("observer saw %d samples with SampleEvery < 0", len(got))
	}
	// Every sample but the closing one is on the 1 s clock.
	for i := 1; i < len(got)-1; i++ {
		if d := got[i].Time - got[i-1].Time; math.Abs(d-1) > 1e-9 {
			t.Fatalf("samples %d and %d are %v s apart, want 1", i-1, i, d)
		}
	}
	if last := got[len(got)-1]; last.Time != res.Elapsed {
		t.Fatalf("closing sample at t=%v, run ended at %v", last.Time, res.Elapsed)
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
