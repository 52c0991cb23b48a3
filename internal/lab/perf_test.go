package lab

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: bulletprime/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineWheel-8      	  200000	       110.5 ns/op	      17 B/op	       0 allocs/op
BenchmarkAllocsPerEvent 	  200000	       151.8 ns/op	         0 allocs/event	      16 B/op	       0 allocs/op
BenchmarkScenarioTraceReplay500 	       3	 117482534 ns/op	     54473 rates_recomputed	      1064 recomputes	11339544 B/op	   14136 allocs/op
PASS
ok  	bulletprime/internal/sim	0.097s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	wheel := got["BenchmarkEngineWheel"] // -8 suffix stripped
	if wheel.NsPerOp != 110.5 || wheel.AllocsPerOp != 0 {
		t.Fatalf("EngineWheel = %+v", wheel)
	}
	tr := got["BenchmarkScenarioTraceReplay500"]
	if tr.NsPerOp != 117482534 || tr.AllocsPerOp != 14136 {
		t.Fatalf("TraceReplay500 = %+v", tr)
	}
}

// TestParseBenchOutputMergesRepeats reads `-count 3` output: one entry per
// benchmark, with the lowest ns/op and the highest allocs/op and B/op of
// its lines, whichever line each came from.
func TestParseBenchOutputMergesRepeats(t *testing.T) {
	const repeated = `BenchmarkEngineHeap-8 	100000	       250.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkPickBlock-8 	100000	       90.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineHeap-8 	100000	       210.2 ns/op	      24 B/op	       0 allocs/op
BenchmarkPickBlock-8 	100000	       95.0 ns/op	       0 B/op	       1 allocs/op
BenchmarkEngineHeap-8 	100000	       230.0 ns/op	       8 B/op	       0 allocs/op
`
	got, err := ParseBenchOutput(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	heap, pick := got["BenchmarkEngineHeap"], got["BenchmarkPickBlock"]
	if len(got) != 2 || heap.NsPerOp != 210.2 || heap.AllocsPerOp != 0 || heap.bytesPerOp != 24 {
		t.Fatalf("EngineHeap = %+v (B/op %v), want 210.2 ns/op, 0 allocs/op, 24 B/op", heap, heap.bytesPerOp)
	}
	if pick.NsPerOp != 90 || pick.AllocsPerOp != 1 {
		t.Fatalf("PickBlock = %+v, want 90 ns/op, 1 allocs/op", pick)
	}
}

func TestParseBenchOutputErrors(t *testing.T) {
	if _, err := ParseBenchOutput(strings.NewReader("PASS\nok x 0.1s\n")); err == nil {
		t.Fatal("no-benchmark input must error")
	}
	// -benchmem missing: a bench line without allocs/op.
	bad := "BenchmarkX-4 100 50.0 ns/op\n"
	if _, err := ParseBenchOutput(strings.NewReader(bad)); err == nil {
		t.Fatal("line without allocs/op must error")
	}
}

func TestPerfGateVerdicts(t *testing.T) {
	base := &PerfBaseline{
		NsTolerance: 1.0, // 2x allowed
		Benchmarks: map[string]PerfEntry{
			"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 0},
			"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 500},
			"BenchmarkC": {NsPerOp: 100, AllocsPerOp: 0},
		},
	}
	measured := map[string]PerfEntry{
		"BenchmarkA": {NsPerOp: 190, AllocsPerOp: 0},   // within 2x: ok
		"BenchmarkB": {NsPerOp: 900, AllocsPerOp: 501}, // one extra alloc: fail
		// BenchmarkC missing: fail
		"BenchmarkD": {NsPerOp: 5, AllocsPerOp: 5}, // new: informational
	}
	results, ok := base.Gate(measured)
	if ok {
		t.Fatal("gate passed despite alloc regression and missing benchmark")
	}
	byName := map[string]PerfGateResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if r := byName["BenchmarkA"]; r.Missing || r.NsRegressed || r.AllocRegressed || r.New {
		t.Fatalf("A should pass: %+v", r)
	}
	if r := byName["BenchmarkB"]; !r.AllocRegressed {
		t.Fatalf("B should fail on allocs: %+v", r)
	}
	if r := byName["BenchmarkC"]; !r.Missing {
		t.Fatalf("C should be missing: %+v", r)
	}
	if r := byName["BenchmarkD"]; !r.New {
		t.Fatalf("D should be new: %+v", r)
	}
	rendered := RenderPerfGate(results, ok)
	for _, want := range []string{"ALLOCS REGRESSED", "MISSING", "new", "perf gate FAILED"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered gate missing %q:\n%s", want, rendered)
		}
	}
}

// TestPerfGateZeroAllocRowsSeeBytes: Go rounds allocs/op down, so an
// engine whose wheel slots grew now and then read "0 allocs/op" beside
// 24 B/op. A row pinned at 0 allocs/op fails on those bytes, and passes
// once they are gone.
func TestPerfGateZeroAllocRowsSeeBytes(t *testing.T) {
	base := &PerfBaseline{NsTolerance: 1.5, Benchmarks: map[string]PerfEntry{
		"BenchmarkEngineWheel":    {NsPerOp: 84.33},
		"BenchmarkAllocsPerEvent": {NsPerOp: 93.35},
	}}
	const growing = `BenchmarkEngineWheel-2      	  100000	       174.3 ns/op	      24 B/op	       0 allocs/op
BenchmarkAllocsPerEvent-2   	  100000	       172.3 ns/op	      24 B/op	       0 allocs/op
`
	measured, err := ParseBenchOutput(strings.NewReader(growing))
	if err != nil {
		t.Fatal(err)
	}
	results, ok := base.Gate(measured)
	if ok {
		t.Fatalf("gate passed two 0-alloc rows measuring 24 B/op:\n%s", RenderPerfGate(results, ok))
	}
	for _, r := range results {
		if !r.AllocRegressed {
			t.Fatalf("%s: 24 B/op on a row pinned at 0 allocs/op not flagged: %+v", r.Name, r)
		}
	}
	if rendered := RenderPerfGate(results, ok); !strings.Contains(rendered, "ALLOCS REGRESSED (24 B/op)") {
		t.Fatalf("rendered gate does not name the bytes:\n%s", rendered)
	}
	measured, err = ParseBenchOutput(strings.NewReader(strings.ReplaceAll(growing, "24 B/op", "0 B/op")))
	if err != nil {
		t.Fatal(err)
	}
	if results, ok := base.Gate(measured); !ok {
		t.Fatalf("gate failed 0 B/op rows:\n%s", RenderPerfGate(results, ok))
	}
	// Captured as a baseline, the growing rows are pinned at 1 allocs/op,
	// and a row pinned above 0 is judged on allocs/op alone.
	measured, _ = ParseBenchOutput(strings.NewReader(growing))
	captured, err := PerfBaselineFrom(measured, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range captured.Benchmarks {
		if e.AllocsPerOp != 1 {
			t.Fatalf("%s captured at %v allocs/op beside 24 B/op, want 1", name, e.AllocsPerOp)
		}
	}
	if results, ok := captured.Gate(measured); !ok {
		t.Fatalf("gate failed the rows it was captured from:\n%s", RenderPerfGate(results, ok))
	}
}

func TestPerfGateNsRegression(t *testing.T) {
	base := &PerfBaseline{
		NsTolerance: 0.5,
		Benchmarks:  map[string]PerfEntry{"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 7}},
	}
	// 2.1x slower with identical allocs: must trip the ns limit.
	results, ok := base.Gate(map[string]PerfEntry{"BenchmarkA": {NsPerOp: 210, AllocsPerOp: 7}})
	if ok || !results[0].NsRegressed {
		t.Fatalf("ns regression not caught: %+v ok=%v", results, ok)
	}
	// Faster run with fewer allocs passes.
	if _, ok := base.Gate(map[string]PerfEntry{"BenchmarkA": {NsPerOp: 50, AllocsPerOp: 0}}); !ok {
		t.Fatal("improvement failed the gate")
	}
}

func TestPerfGateNsCeiling(t *testing.T) {
	// The ceiling is absolute: tolerance does not apply to it, and a value
	// within tolerance but above the ceiling fails.
	base := &PerfBaseline{
		NsTolerance: 1.0, // 2x tolerated drift
		Benchmarks: map[string]PerfEntry{
			"BenchmarkPar": {NsPerOp: 100, AllocsPerOp: 10, NsCeiling: 150},
			"BenchmarkSeq": {NsPerOp: 150, AllocsPerOp: 10},
		},
	}
	seq := PerfEntry{NsPerOp: 150, AllocsPerOp: 10}

	// At the ceiling exactly: passes (bound is inclusive).
	results, ok := base.Gate(map[string]PerfEntry{
		"BenchmarkPar": {NsPerOp: 150, AllocsPerOp: 10}, "BenchmarkSeq": seq})
	if !ok {
		t.Fatalf("measurement at the ceiling must pass: %+v", results)
	}

	// 160 ns/op is within the 2x drift tolerance but above the 150 ceiling.
	results, ok = base.Gate(map[string]PerfEntry{
		"BenchmarkPar": {NsPerOp: 160, AllocsPerOp: 10}, "BenchmarkSeq": seq})
	if ok {
		t.Fatal("measurement above the ceiling passed")
	}
	var par PerfGateResult
	for _, r := range results {
		if r.Name == "BenchmarkPar" {
			par = r
		}
	}
	if !par.CeilingExceeded || par.NsRegressed {
		t.Fatalf("want CeilingExceeded only: %+v", par)
	}
	rendered := RenderPerfGate(results, ok)
	if !strings.Contains(rendered, "NS CEILING EXCEEDED (150)") {
		t.Fatalf("rendered gate missing ceiling verdict:\n%s", rendered)
	}

	// A ceiling entry round-trips through Save/Load.
	path := filepath.Join(t.TempDir(), "BENCH_PERF.json")
	if err := base.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPerfBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Benchmarks["BenchmarkPar"].NsCeiling; got != 150 {
		t.Fatalf("NsCeiling lost in round trip: %v", got)
	}
	if got := loaded.Benchmarks["BenchmarkSeq"].NsCeiling; got != 0 {
		t.Fatalf("unexpected ceiling on Seq: %v", got)
	}
}

func TestPerfBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_PERF.json")
	measured, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PerfBaselineFrom(measured, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPerfBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NsTolerance != 1.5 || len(loaded.Benchmarks) != 3 {
		t.Fatalf("round trip lost data: %+v", loaded)
	}
	if _, ok := loaded.Gate(measured); !ok {
		t.Fatal("identical measurements must pass their own baseline")
	}
	if _, err := LoadPerfBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing baseline must error")
	}
}
