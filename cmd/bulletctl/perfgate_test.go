package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const perfBenchOutput = `goos: linux
BenchmarkAllocsPerEvent-2 	  200000	       151.8 ns/op	         0 allocs/event	      16 B/op	       0 allocs/op
BenchmarkScenarioTraceReplay500 	       3	 117482534 ns/op	11339544 B/op	   14136 allocs/op
PASS
`

// writePerfInputs returns paths to a bench-output file and a baseline
// written from it via the -write flow.
func writePerfInputs(t *testing.T) (inputPath, basePath string) {
	t.Helper()
	dir := t.TempDir()
	inputPath = filepath.Join(dir, "bench.txt")
	basePath = filepath.Join(dir, "BENCH_PERF.json")
	if err := os.WriteFile(inputPath, []byte(perfBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := dispatch([]string{"perfgate", "-input", inputPath, "-baseline", basePath, "-write"},
		&out, &errb)
	if code != 0 {
		t.Fatalf("perfgate -write exit %d: %s", code, errb.String())
	}
	return inputPath, basePath
}

func TestPerfGateWriteThenPass(t *testing.T) {
	inputPath, basePath := writePerfInputs(t)
	var out, errb bytes.Buffer
	code := dispatch([]string{"perfgate", "-input", inputPath, "-baseline", basePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("perfgate exit %d against own baseline: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "perf gate ok") {
		t.Fatalf("output missing pass banner:\n%s", out.String())
	}
}

func TestPerfGateInjectedRegression(t *testing.T) {
	_, basePath := writePerfInputs(t)
	dir := t.TempDir()
	regressed := strings.Replace(perfBenchOutput, "0 allocs/op", "3 allocs/op", 1)
	regPath := filepath.Join(dir, "regressed.txt")
	if err := os.WriteFile(regPath, []byte(regressed), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := dispatch([]string{"perfgate", "-input", regPath, "-baseline", basePath}, &out, &errb)
	if code != 1 {
		t.Fatalf("perfgate exit %d on alloc regression, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ALLOCS REGRESSED") {
		t.Fatalf("output missing regression verdict:\n%s", out.String())
	}
}

func TestPerfGateWriteKeepsCeilingsAndTrajectory(t *testing.T) {
	inputPath, basePath := writePerfInputs(t)
	// Hand-set a ceiling on one entry, as BENCH_PERF.json does for the
	// sharded-vs-sequential wall-time bound, and a trajectory line, then
	// regenerate via -write.
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data),
		`"ns_per_op": 117482534,`, `"ns_per_op": 117482534, "ns_ceiling": 2e8,`, 1)
	edited = strings.Replace(edited, `"benchmarks": {`, `"trajectory": ["PR 0: pinned"], "benchmarks": {`, 1)
	if edited == string(data) {
		t.Fatalf("baseline edit did not apply:\n%s", data)
	}
	if err := os.WriteFile(basePath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := dispatch([]string{"perfgate", "-input", inputPath, "-baseline", basePath,
		"-write"}, &out, &errb); code != 0 {
		t.Fatalf("perfgate -write exit %d: %s", code, errb.String())
	}
	rewritten, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rewritten), `"ns_ceiling": 200000000`) {
		t.Fatalf("-write dropped the hand-set ns_ceiling:\n%s", rewritten)
	}
	if !strings.Contains(string(rewritten), `"PR 0: pinned"`) {
		t.Fatalf("-write dropped the trajectory:\n%s", rewritten)
	}
}

func TestPerfGateUsageErrors(t *testing.T) {
	cases := [][]string{
		{"perfgate"},                            // missing -baseline
		{"perfgate", "-baseline", "x", "extra"}, // stray argument
		{"perfgate", "-nope"},                   // unknown flag
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := dispatch(args, &out, &errb); code != 2 {
			t.Fatalf("%v exit %d, want 2", args, code)
		}
	}
}

func TestPerfGateMissingFiles(t *testing.T) {
	inputPath, _ := writePerfInputs(t)
	var out, errb bytes.Buffer
	if code := dispatch([]string{"perfgate", "-input", inputPath, "-baseline",
		filepath.Join(t.TempDir(), "absent.json")}, &out, &errb); code != 1 {
		t.Fatalf("missing baseline exit %d, want 1", code)
	}
	if code := dispatch([]string{"perfgate", "-input",
		filepath.Join(t.TempDir(), "absent.txt"), "-baseline", "x"}, &out, &errb); code != 1 {
		t.Fatalf("missing input exit %d, want 1", code)
	}
}
