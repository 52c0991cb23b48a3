package bulletprime_test

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"bulletprime"
)

// TestArchiveRecordRoundTripDedupe is the archive acceptance contract:
// recording the same (config, scenario, seed) twice dedupes to one run,
// the loaded record reproduces the Result bit-for-bit, and a different
// seed records separately.
func TestArchiveRecordRoundTripDedupe(t *testing.T) {
	arch, err := bulletprime.OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bulletprime.RunConfig{
		Nodes: 10, FileBytes: 1 << 20, Seed: 1, SampleEvery: 5,
		Archive: arch,
	}
	res1, err := bulletprime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 {
		t.Fatalf("one run archived %d records", len(metas))
	}
	id := metas[0].ID

	// Identical rerun dedupes; a changed seed lands separately.
	if _, err := bulletprime.Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 2
	if _, err := bulletprime.Run(cfg2); err != nil {
		t.Fatal(err)
	}
	metas, err = arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("rerun + new seed left %d records, want 2 (dedupe + fresh)", len(metas))
	}

	// Round trip: the archived record reproduces the live Result exactly.
	back, err := arch.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.CompletionTimes) != len(res1.CompletionTimes) {
		t.Fatalf("archived %d completions, live run had %d",
			len(back.CompletionTimes), len(res1.CompletionTimes))
	}
	for node, want := range res1.CompletionTimes {
		if got := back.CompletionTimes[node]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("node %d completion %v != live %v", node, got, want)
		}
	}
	if back.Meta.Protocol != "bulletprime" || back.Meta.Network != "modelnet" || back.Meta.Seed != 1 {
		t.Fatalf("manifest metadata wrong: %+v", back.Meta)
	}
	if !back.Meta.Finished {
		t.Fatal("finished run archived as unfinished")
	}
	if got, want := back.CDF().Quantile(0.5), res1.Median(); got != want {
		t.Fatalf("archived median %v != live %v", got, want)
	}

	// Compare over archived runs is deterministic across loads.
	runsA, err := arch.Select(bulletprime.ArchiveFilter{Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	runsB, err := arch.Select(bulletprime.ArchiveFilter{Seeds: []int64{2}})
	if err != nil {
		t.Fatal(err)
	}
	rep1 := bulletprime.CompareArchived("seed1", runsA, "seed2", runsB).Report()
	runsA2, _ := arch.Select(bulletprime.ArchiveFilter{Seeds: []int64{1}})
	runsB2, _ := arch.Select(bulletprime.ArchiveFilter{Seeds: []int64{2}})
	rep2 := bulletprime.CompareArchived("seed1", runsA2, "seed2", runsB2).Report()
	if rep1 != rep2 {
		t.Fatal("comparison report differs across archive loads")
	}
	if !strings.Contains(rep1, "seed1 vs seed2") {
		t.Fatalf("comparison report malformed:\n%s", rep1)
	}
	all := append(runsA, runsB...)
	if rep := bulletprime.ArchiveReport(all); !strings.Contains(rep, "2 run(s) in 1 group(s)") || !strings.Contains(rep, "bulletprime") {
		t.Fatalf("archive report does not pool the two runs into one group:\n%s", rep)
	}
}

// TestArchiveSeriesPersisted pins that a session's sampled time-series
// and scenario annotations survive the archive round trip.
func TestArchiveSeriesPersisted(t *testing.T) {
	arch, err := bulletprime.OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Nodes: 10, FileBytes: 1 << 20, Seed: 1, SampleEvery: 2,
		DynamicBandwidth: true, Archive: arch,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("test needs a sampled series")
	}
	id := exp.RunID()
	if id == "" {
		t.Fatal("auto-recorded session has no RunID")
	}
	back, err := arch.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != len(res.Series) {
		t.Fatalf("archived %d samples, live %d", len(back.Series), len(res.Series))
	}
	for i, s := range res.Series {
		b := back.Series[i]
		if math.Float64bits(b.Time) != math.Float64bits(s.Time) ||
			b.Completed != s.Completed ||
			math.Float64bits(b.GoodputBps) != math.Float64bits(s.GoodputBps) ||
			math.Float64bits(b.DataBytes) != math.Float64bits(s.DataBytes) {
			t.Fatalf("sample %d diverged: %+v vs %+v", i, b, s)
		}
	}
	if back.Meta.Samples != len(res.Series) {
		t.Fatalf("manifest sample count %d, want %d", back.Meta.Samples, len(res.Series))
	}
}

// TestArchiveKeyCoversSeriesShape pins that the archive id keys the
// record's actual payload: an observed session (which persists a
// time-series) and the one-shot Run wrapper (which persists none) of the
// same config land as two distinct records, while each path dedupes
// against its own rerun.
func TestArchiveKeyCoversSeriesShape(t *testing.T) {
	arch, err := bulletprime.OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1, SampleEvery: 5, Archive: arch}

	sessionRun := func() string {
		exp, err := bulletprime.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exp.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return exp.RunID()
	}
	sid := sessionRun()
	if _, err := bulletprime.Run(cfg); err != nil { // wrapper: no series kept
		t.Fatal(err)
	}
	metas, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("series-keeping session and seriesless wrapper must not share a record: %d record(s)", len(metas))
	}
	for _, m := range metas {
		if m.ID == sid && m.Samples == 0 {
			t.Fatal("session record lost its series")
		}
		if m.ID != sid && m.Samples != 0 {
			t.Fatal("wrapper record unexpectedly holds a series")
		}
	}
	// Each path still dedupes against itself.
	if id := sessionRun(); id != sid {
		t.Fatalf("session rerun recorded as %s, want dedupe to %s", id, sid)
	}
	if _, err := bulletprime.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if metas, _ = arch.List(); len(metas) != 2 {
		t.Fatalf("reruns must dedupe: %d record(s), want 2", len(metas))
	}
}

// TestRecordErrors pins the automatic record's guard rail: a cancelled
// (partial) run is never archived. RunID is the session's address from the
// moment New returns, whether or not Run records under it: a completed
// rerun of the same config lands exactly there.
func TestRecordErrors(t *testing.T) {
	arch, err := bulletprime.OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1, Archive: arch}
	exp, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := exp.RunID()
	if id == "" || arch.Has(id) {
		t.Fatalf("a new session's RunID %q (held: %v), want its unrecorded address", id, arch.Has(id))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := exp.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("test needs a cancelled run")
	}
	metas, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 0 || arch.Has(id) {
		t.Fatalf("cancelled run leaked %d records into the archive", len(metas))
	}
	rerun, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rerun.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if metas, err = arch.List(); err != nil || len(metas) != 1 || metas[0].ID != id || rerun.RunID() != id {
		t.Fatalf("completed rerun left %d records (%v), want the one id %s", len(metas), err, id)
	}
	cfg.Archive = nil
	plain, err := bulletprime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if id := plain.RunID(); id != "" {
		t.Fatalf("a session without an archive has the address %q", id)
	}
}

// TestSweepAutoRecord pins the sweep path: every completed cell of a
// sweep whose base config carries an archive lands in it exactly once,
// with SweepRun.RunID reporting the id.
func TestSweepAutoRecord(t *testing.T) {
	arch, err := bulletprime.OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := bulletprime.Sweep(bulletprime.SweepConfig{
		Base: bulletprime.RunConfig{
			Nodes: 10, FileBytes: 1 << 20, Parallel: 2, Archive: arch,
		},
		Seeds:     []int64{1, 2},
		Protocols: []bulletprime.Protocol{bulletprime.ProtocolBulletPrime, bulletprime.ProtocolBitTorrent},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("cell %d archival error: %v", r.Index, r.Err)
		}
		if r.RunID == "" {
			t.Fatalf("cell %d has no RunID", r.Index)
		}
		ids[r.RunID] = true
	}
	if len(ids) != 4 {
		t.Fatalf("%d distinct run ids, want 4", len(ids))
	}
	metas, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 4 {
		t.Fatalf("archive holds %d records, want 4", len(metas))
	}
	// Per-protocol selection sees exactly the sweep's cells.
	sel, err := arch.Select(bulletprime.ArchiveFilter{Protocol: "bittorrent"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d bittorrent runs, want 2", len(sel))
	}
}
