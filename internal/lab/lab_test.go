package lab

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testRun builds a minimal archivable run.
func testRun(protocol string, seed int64, times map[int]float64) *Run {
	cfgJSON, _ := json.Marshal(map[string]any{
		"protocol": protocol, "network": "modelnet", "nodes": 10,
		"file_bytes": 1e6, "seed": seed,
	})
	return &Run{
		Meta: Meta{
			Config:    cfgJSON,
			Seed:      seed,
			Protocol:  protocol,
			Network:   "modelnet",
			Nodes:     10,
			FileBytes: 1e6,
			Finished:  true,
			Elapsed:   100,
		},
		CompletionTimes: times,
		Series: []Sample{
			{Time: 1, Completed: 0, Receivers: len(times), GoodputBps: 1000},
			{Time: 2, Completed: len(times), Receivers: len(times), GoodputBps: 2500.25},
		},
		Annotations: []Annotation{{At: 1.5, Text: "bw halved"}},
	}
}

func openTemp(t *testing.T) *Archive {
	t.Helper()
	a, err := Open(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	a.SetVersion("test")
	return a
}

func TestArchiveRoundTripAndDedupe(t *testing.T) {
	a := openTemp(t)
	run := testRun("bulletprime", 1, map[int]float64{1: 10.5, 2: 20.25, 3: 30})
	id, created, err := a.Put(run)
	if err != nil {
		t.Fatal(err)
	}
	if !created || id == "" {
		t.Fatalf("first Put: created=%v id=%q", created, id)
	}

	// Re-archiving the identical run dedupes to the same id.
	id2, created2, err := a.Put(testRun("bulletprime", 1, map[int]float64{1: 10.5, 2: 20.25, 3: 30}))
	if err != nil {
		t.Fatal(err)
	}
	if created2 || id2 != id {
		t.Fatalf("identical rerun: created=%v id=%q, want dedupe to %q", created2, id2, id)
	}
	if metas, err := a.List(); err != nil || len(metas) != 1 {
		t.Fatalf("after dedupe: %d runs (err %v), want 1", len(metas), err)
	}

	// A different seed lands under a different id.
	id3, created3, err := a.Put(testRun("bulletprime", 2, map[int]float64{1: 11}))
	if err != nil {
		t.Fatal(err)
	}
	if !created3 || id3 == id {
		t.Fatalf("changed seed: created=%v id=%q (original %q), want fresh record", created3, id3, id)
	}

	// Full round trip preserves payload bit-for-bit.
	back, err := a.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	for node, want := range run.CompletionTimes {
		got, ok := back.CompletionTimes[node]
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("completion[%d] = %v, want %v", node, got, want)
		}
	}
	if len(back.Series) != 2 || back.Series[1].GoodputBps != 2500.25 {
		t.Fatalf("series corrupted on round trip: %+v", back.Series)
	}
	if len(back.Annotations) != 1 || back.Annotations[0].Text != "bw halved" {
		t.Fatalf("annotations corrupted: %+v", back.Annotations)
	}
	if back.Meta.Quantiles["median"] != 20.25 {
		t.Fatalf("manifest median %v, want 20.25", back.Meta.Quantiles["median"])
	}
	if got := back.CDF().Quantile(1); got != 30 {
		t.Fatalf("round-tripped CDF worst %v, want 30", got)
	}
}

func TestArchiveVersionChangesID(t *testing.T) {
	a := openTemp(t)
	id1, _, err := a.Put(testRun("bulletprime", 1, map[int]float64{1: 10}))
	if err != nil {
		t.Fatal(err)
	}
	a.SetVersion("other-commit")
	id2, created, err := a.Put(testRun("bulletprime", 1, map[int]float64{1: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if !created || id2 == id1 {
		t.Fatalf("same config under a new code version must archive separately (id1=%s id2=%s created=%v)",
			id1, id2, created)
	}
}

func TestArchiveUnreadableRoot(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file); err == nil {
		t.Fatal("Open over a regular file should fail")
	}

	// An archive whose runs dir vanishes reports the error on List.
	a, err := Open(filepath.Join(dir, "arch"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "arch", "runs")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.List(); err == nil {
		t.Fatal("List with an unreadable runs dir should fail")
	}
}

func TestArchiveTruncatedRecord(t *testing.T) {
	a := openTemp(t)
	id, _, err := a.Put(testRun("bulletprime", 1, map[int]float64{1: 10, 2: 20}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(a.Root(), "runs", id, "record.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = a.Load(id)
	if err == nil {
		t.Fatal("loading a truncated record should fail")
	}
	if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("truncation reported as %v, want a hash mismatch naming the run", err)
	}
}

func TestArchiveManifestHashMismatch(t *testing.T) {
	a := openTemp(t)
	id, _, err := a.Put(testRun("bulletprime", 1, map[int]float64{1: 10}))
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(a.Root(), "runs", id, "manifest.json")

	// Tamper with a hashed key input: the manifest no longer matches its id.
	var m Meta
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m.Seed = 999
	tampered, _ := json.Marshal(&m)
	if err := os.WriteFile(manifestPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Load(id); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("tampered manifest: err %v, want manifest/hash mismatch", err)
	}
	// List must also refuse to silently skip the corrupt record.
	if _, err := a.List(); err == nil {
		t.Fatal("List over a tampered manifest should fail")
	}

	// Unparseable manifest is reported too.
	if err := os.WriteFile(manifestPath, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Load(id); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt manifest: err %v, want corrupt-manifest report", err)
	}
}

func TestArchiveRecordPayloadTamper(t *testing.T) {
	a := openTemp(t)
	id, _, err := a.Put(testRun("bulletprime", 1, map[int]float64{1: 10}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(a.Root(), "runs", id, "record.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a completion value without changing the length.
	tampered := strings.Replace(string(data), `"at":10`, `"at":99`, 1)
	if tampered == string(data) {
		t.Fatal("test setup: expected completion line to contain at:10")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Load(id); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("tampered payload: err %v, want record/manifest hash mismatch", err)
	}
}

func TestSelectAndParseFilter(t *testing.T) {
	a := openTemp(t)
	for _, seed := range []int64{1, 2, 3} {
		if _, _, err := a.Put(testRun("bulletprime", seed, map[int]float64{1: float64(10 * seed)})); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.Put(testRun("bittorrent", seed, map[int]float64{1: float64(20 * seed)})); err != nil {
			t.Fatal(err)
		}
	}
	f, err := ParseFilter("protocol=bittorrent, seeds=1+3")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := a.Select(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("selected %d runs, want 2", len(runs))
	}
	for _, r := range runs {
		if r.Meta.Protocol != "bittorrent" || r.Meta.Seed == 2 {
			t.Fatalf("filter leaked run %+v", r.Meta)
		}
	}
	all, err := a.Select(Filter{})
	if err != nil || len(all) != 6 {
		t.Fatalf("empty filter selected %d (err %v), want all 6", len(all), err)
	}
	// Id-prefix selection.
	one, err := a.Select(Filter{ID: all[0].Meta.ID[:8]})
	if err != nil || len(one) != 1 {
		t.Fatalf("id-prefix filter selected %d (err %v), want 1", len(one), err)
	}

	if _, err := ParseFilter("bogus=1"); err == nil {
		t.Fatal("unknown selector key should fail")
	}
	if _, err := ParseFilter("seed=abc"); err == nil {
		t.Fatal("non-numeric seed should fail")
	}
	if _, err := ParseFilter("protocol"); err == nil {
		t.Fatal("missing '=' should fail")
	}
}

func TestKeyDeterminismAndSeparation(t *testing.T) {
	k := Key([]byte(`{"a":1}`), "scen", 7, "v1")
	if k != Key([]byte(`{"a":1}`), "scen", 7, "v1") {
		t.Fatal("Key is not deterministic")
	}
	if len(k) != 16 {
		t.Fatalf("Key length %d, want 16", len(k))
	}
	// Field boundaries must not be collapsible.
	if Key([]byte(`ab`), "c", 0, "") == Key([]byte(`a`), "bc", 0, "") {
		t.Fatal("Key collides across field boundaries")
	}
	for _, other := range []string{
		Key([]byte(`{"a":2}`), "scen", 7, "v1"),
		Key([]byte(`{"a":1}`), "necs", 7, "v1"),
		Key([]byte(`{"a":1}`), "scen", 8, "v1"),
		Key([]byte(`{"a":1}`), "scen", 7, "v2"),
	} {
		if other == k {
			t.Fatal("Key ignores one of its inputs")
		}
	}
}

// TestDigest pins Digest to the short-hex form Key uses: the first 16 hex
// digits of the blob's SHA-256.
func TestDigest(t *testing.T) {
	if got := Digest([]byte("abc")); got != "ba7816bf8f01cfea" {
		t.Fatalf("Digest(abc) = %s, want the first 16 hex digits of its SHA-256", got)
	}
	if Digest([]byte(`{"name":"a"}`)) == Digest([]byte(`{"name":"b"}`)) {
		t.Fatal("Digest ignores its input")
	}
}
