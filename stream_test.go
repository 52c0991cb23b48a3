package bulletprime

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"bulletprime/internal/scenario"
	"bulletprime/internal/stream"
)

// TestStreamRunBasics drives a small live-stream session end to end: the
// source paces emission, every viewer is tracked, and the result carries
// both the per-sample stream fields and the end-of-run report.
func TestStreamRunBasics(t *testing.T) {
	res, err := Run(RunConfig{
		Protocol: ProtocolStream,
		Nodes:    8,
		Network:  NetworkModelNetClean,
		Seed:     42,
		Stream:   &StreamOptions{BitrateBps: 64 * 1024, Duration: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream == nil {
		t.Fatal("streaming run returned no Stream report")
	}
	rep := res.Stream
	if rep.TargetBps != 64*1024 {
		t.Errorf("TargetBps = %v, want %v", rep.TargetBps, 64*1024)
	}
	if len(rep.Nodes) != 7 {
		t.Errorf("report has %d viewer rows, want 7", len(rep.Nodes))
	}
	if rep.Live != 7 {
		t.Errorf("Live = %d, want 7", rep.Live)
	}
	if rep.GoodputBps < 0.9*rep.TargetBps {
		t.Errorf("mean viewer goodput %.0f B/s below 90%% of the %v B/s target",
			rep.GoodputBps, rep.TargetBps)
	}
	if !res.Finished {
		t.Errorf("8-node clean stream did not finish (elapsed %.1fs)", res.Elapsed)
	}
}

// TestStreamValidation pins the façade's one-place streaming rules: every
// invalid combination fails in normalized() with a diagnostic, regardless
// of entry point.
func TestStreamValidation(t *testing.T) {
	base := func() RunConfig {
		return RunConfig{
			Nodes:  8,
			Stream: &StreamOptions{BitrateBps: 64 * 1024, Duration: 10},
		}
	}
	cases := []struct {
		name string
		mut  func(*RunConfig)
		want string
	}{
		{"zero bitrate", func(c *RunConfig) { c.Stream.BitrateBps = 0 }, "BitrateBps must be positive"},
		{"zero duration", func(c *RunConfig) { c.Stream.Duration = 0 }, "Duration must be positive"},
		{"explicit FileBytes", func(c *RunConfig) { c.FileBytes = 1 << 20 }, "leave it zero"},
		{"sharded engine", func(c *RunConfig) { c.Engine = EngineSharded }, "sequential engine"},
		{"testbed network", func(c *RunConfig) { c.Network = NetworkTestbedUDP }, "testbed"},
		{"encoded source", func(c *RunConfig) { c.Encoded = true }, "pick one"},
		{"non-streaming protocol", func(c *RunConfig) { c.Protocol = ProtocolBitTorrent },
			"does not support live streaming"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New() error = %v, want substring %q", err, tc.want)
			}
		})
	}

	// The valid base derives FileBytes = whole blocks covering rate × duration.
	norm, err := base().normalized()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := math.Ceil(64*1024*10/norm.BlockSize) * norm.BlockSize
	if norm.FileBytes != wantBytes {
		t.Errorf("derived FileBytes = %v, want %v", norm.FileBytes, wantBytes)
	}
	if norm.Stream.PlayoutDepth != 4 || norm.Stream.Drain != 15 || norm.Stream.Warmup != 2.5 {
		t.Errorf("stream defaults = %+v, want depth 4, drain 15, warmup 2.5", *norm.Stream)
	}
}

// TestStreamBlockCountOneFormula pins that the blocks a streaming session
// sends and the blocks its tracker models are one number across stream
// geometries, including two where ⌈Duration/Interval⌉ rounds up past
// ⌈BitrateBps·Duration/BlockSize⌉.
func TestStreamBlockCountOneFormula(t *testing.T) {
	check := func(rate, duration float64) int {
		t.Helper()
		norm, err := RunConfig{Nodes: 8, Stream: &StreamOptions{BitrateBps: rate, Duration: duration}}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := buildSpec(norm)
		if err != nil {
			t.Fatal(err)
		}
		session := spec.Workload.NumBlocks()
		model := stream.Config{BitrateBps: spec.Stream.BitrateBps, BlockSize: spec.Workload.BlockSize,
			Duration: spec.Stream.Duration}.Blocks()
		if session != model {
			t.Fatalf("%v B/s × %v s: the session sends %d blocks, the tracker models %d", rate, duration, session, model)
		}
		return session
	}
	if n := check(50176, 16); n != 49 {
		t.Errorf("50176 B/s × 16 s = %d blocks, want 49", n)
	}
	if n := check(7.2*1e6/8, 512); n != 28125 { // bulletctl run -stream -bitrate 7.2 -duration 512
		t.Errorf("900000 B/s × 512 s = %d blocks, want 28125", n)
	}
	for _, rate := range []float64{1000, 12345.6, 50176, 64 * 1024, 100000, 300000, 7.2 * 1e6 / 8, 2.5e6} {
		for duration := 0.5; duration <= 64; duration += 0.5 {
			check(rate, duration)
		}
	}
}

// TestStreamViewerBlocksMatchModel runs a stream whose two old block counts
// disagreed: every viewer of the finished run holds exactly the blocks the
// tracker's model says the stream has.
func TestStreamViewerBlocksMatchModel(t *testing.T) {
	opts := StreamOptions{BitrateBps: 50176, Duration: 16}
	res, err := Run(RunConfig{Nodes: 8, Network: NetworkModelNetClean, Seed: 3, Stream: &opts})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || res.Stream == nil {
		t.Fatalf("stream did not finish (elapsed %.1fs)", res.Elapsed)
	}
	model := stream.Config{BitrateBps: opts.BitrateBps, BlockSize: 16 * 1024, Duration: opts.Duration}.Blocks()
	for _, v := range res.Stream.Nodes {
		if v.Blocks != model {
			t.Errorf("viewer %d reports %d blocks, the model %d", v.Node, v.Blocks, model)
		}
	}
}

// TestStreamFingerprintStability guards the archive identity contract: a
// one-shot config's fingerprint carries no stream key at all (existing
// archived ids stay byte-stable across this feature), and a streamed run
// never shares an id with — and so can never dedupe into — the one-shot run
// of the same derived file size.
func TestStreamFingerprintStability(t *testing.T) {
	oneShot, err := RunConfig{Nodes: 8, FileBytes: 1 << 20}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	js, _, _, err := fingerprint(oneShot, -1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(js), "stream") {
		t.Fatalf("one-shot fingerprint mentions stream, breaking pre-streaming ids: %s", js)
	}

	streamed, err := RunConfig{
		Nodes:  8,
		Stream: &StreamOptions{BitrateBps: 64 * 1024, Duration: 16},
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if streamed.FileBytes != oneShot.FileBytes {
		t.Fatalf("test needs matching file sizes (stream derived %v, one-shot %v)",
			streamed.FileBytes, oneShot.FileBytes)
	}
	js2, _, _, err := fingerprint(streamed, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js2), `"stream"`) {
		t.Fatalf("streamed fingerprint carries no stream knobs: %s", js2)
	}

	// End to end: both runs recorded into one archive stay two records.
	// (Fresh un-normalized configs: Run normalizes itself, and a normalized
	// streaming config already carries its derived FileBytes.)
	arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(RunConfig{Nodes: 8, FileBytes: 1 << 20, Archive: arch}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(RunConfig{
		Nodes:   8,
		Stream:  &StreamOptions{BitrateBps: 64 * 1024, Duration: 16},
		Archive: arch,
	}); err != nil {
		t.Fatal(err)
	}
	metas, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("one-shot + streamed run of the same file size left %d records, want 2", len(metas))
	}
}

// TestStreamCancelMidStream pins cancellation during a live stream: the
// partial Series keeps its lag samples and the partial Stream report (with
// any rebuffer counts so far) survives the early stop.
func TestStreamCancelMidStream(t *testing.T) {
	exp, err := New(RunConfig{
		Protocol:    ProtocolStream,
		Nodes:       10,
		Network:     NetworkModelNet,
		Seed:        4,
		SampleEvery: 1,
		Stream:      &StreamOptions{BitrateBps: 128 * 1024, Duration: 120},
	})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := exp.Subscribe(ObserverConfig{})
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
		if seen++; seen == 10 {
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
	if res.Elapsed >= 120 {
		t.Fatalf("cancelled at t=%.1fs, want mid-stream (< 120s)", res.Elapsed)
	}
	if len(res.Series) == 0 {
		t.Fatal("cancelled stream returned no partial series")
	}
	var sawLag bool
	for _, s := range res.Series {
		if s.StreamLagMax > 0 {
			sawLag = true
			break
		}
	}
	if !sawLag {
		t.Error("partial series carries no live lag samples")
	}
	if res.Stream == nil {
		t.Fatal("cancelled stream returned no partial report")
	}
	if res.Stream.LagMax <= 0 {
		t.Error("partial report shows no lag mid-stream (viewers cannot be caught up at cancel time)")
	}
}

// TestStreamChurnBoundedLag is the acceptance pin for the tentpole: an
// 8-node Bullet' live stream under departure churn keeps serving the
// surviving viewers at the target bitrate with bounded lag.
func TestStreamChurnBoundedLag(t *testing.T) {
	const target = 128 * 1024
	res, err := Run(RunConfig{
		Protocol: ProtocolBulletPrime,
		Nodes:    8,
		Network:  NetworkModelNetClean,
		Seed:     11,
		Scenario: scenario.LiveChurn(15, 0.3, 20),
		Stream:   &StreamOptions{BitrateBps: target, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Stream
	if rep == nil {
		t.Fatal("no stream report")
	}
	if rep.Dead == 0 {
		t.Fatal("churn scenario killed no viewers; the test is not exercising churn")
	}
	if rep.Live == 0 {
		t.Fatal("no viewers survived")
	}
	// Surviving viewers must have sustained the stream: every one holds the
	// full 60 s of content by the end (mean goodput over the run is diluted
	// by the catch-up drain window, so block counts are the exact check),
	// and lag stayed bounded well below the stream length (the
	// unbounded-lag failure mode drifts toward Duration).
	wantBlocks := int(math.Ceil(target * 60 / (16 * 1024)))
	for _, nr := range rep.Nodes {
		if !nr.Dead && nr.Blocks != wantBlocks {
			t.Errorf("live viewer %d holds %d/%d blocks; the stream did not sustain the target bitrate",
				nr.Node, nr.Blocks, wantBlocks)
		}
	}
	if rep.PeakLagMax >= 30 {
		t.Errorf("peak lag %.1fs unbounded (>= half the 60s stream)", rep.PeakLagMax)
	}
}

// TestStreamLossVsDelaySelection is the acceptance pin for the estimator:
// under the high bandwidth-delay-product network the delay-gradient sender
// ranking diverges from the loss/throughput ranking on identical seeds, and
// the seed-paired archived comparison renders through the archive layer.
func TestStreamLossVsDelaySelection(t *testing.T) {
	arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	// 20 nodes at 4 Mbps on 10 Mbps / 100 ms paths: enough mesh contention
	// that sender queues build and the peer-ranking rules (trim/enforce)
	// actually fire — below that scale both signals pick the same peers and
	// the runs stay bit-identical.
	seeds := []int64{1, 2, 3}
	opts := StreamOptions{BitrateBps: 512 * 1024, Duration: 30}
	run := func(p Protocol, seed int64) *Result {
		t.Helper()
		o := opts
		res, err := Run(RunConfig{
			Protocol: p,
			Nodes:    20,
			Network:  NetworkHighBDP,
			Seed:     seed,
			Stream:   &o,
			Archive:  arch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var diverged bool
	for _, seed := range seeds {
		loss := run(ProtocolBulletPrime, seed)
		delay := run(ProtocolStream, seed)
		// Identical seeds share the topology draw, so any difference in the
		// per-node completion profile is the selection signal acting.
		for id, tl := range loss.CompletionTimes {
			if td, ok := delay.CompletionTimes[id]; ok && tl != td {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("delay-based selection is bit-identical to loss-based on every high-BDP seed; the estimator is not steering")
	}

	// The archived pair renders as a seed-paired comparison report.
	lossRuns, err := arch.Select(ArchiveFilter{Protocol: string(ProtocolBulletPrime)})
	if err != nil {
		t.Fatal(err)
	}
	delayRuns, err := arch.Select(ArchiveFilter{Protocol: string(ProtocolStream)})
	if err != nil {
		t.Fatal(err)
	}
	if len(lossRuns) != len(seeds) || len(delayRuns) != len(seeds) {
		t.Fatalf("archived %d loss / %d delay runs, want %d each", len(lossRuns), len(delayRuns), len(seeds))
	}
	report := CompareArchived("loss-based", lossRuns, "delay-based", delayRuns).Report()
	for _, want := range []string{"loss-based", "delay-based", "seed"} {
		if !strings.Contains(report, want) {
			t.Fatalf("comparison report missing %q:\n%s", want, report)
		}
	}
}
