package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bulletprime/internal/golden"
	"bulletprime/internal/lab"
)

// ctl invokes the dispatcher the way main does and captures the streams.
func ctl(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = dispatch(args, &out, &errb)
	return code, out.String(), errb.String()
}

// buildTestArchive records a small two-protocol × two-seed sweep, the
// fixture every archive subcommand test reads. The simulation is
// deterministic, so the archive contents are identical on every run.
func buildTestArchive(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "bench")
	code, _, stderr := ctl(t, "sweep",
		"-nodes", "10", "-filemb", "1", "-seeds", "2",
		"-protocols", "bulletprime,bittorrent", "-parallel", "2",
		"-archive", dir)
	if code != 0 {
		t.Fatalf("sweep -archive exited %d: %s", code, stderr)
	}
	return dir
}

// TestSubcommandExitCodes is the CLI's usage contract, as a table over
// every subcommand: unknown subcommands and bad flags exit 2 with a
// message, never 0 and never a panic.
func TestSubcommandExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"unknown subcommand with flags", []string{"explode", "-now"}, 2},
		{"figure mode bad flag", []string{"-bogus"}, 2},
		{"figure mode stray argument", []string{"-list", "extra"}, 2},
		{"figure list ok", []string{"-list"}, 0},

		{"run bad flag", []string{"run", "-bogus"}, 2},
		{"run stray argument", []string{"run", "extra"}, 2},
		{"run help", []string{"run", "-h"}, 0},
		{"sweep bad flag", []string{"sweep", "-bogus"}, 2},
		{"sweep stray argument", []string{"sweep", "extra"}, 2},
		{"scenario no verb", []string{"scenario"}, 2},
		{"scenario bad verb", []string{"scenario", "fold"}, 2},
		{"scenario lint bad flag", []string{"scenario", "lint", "-bogus"}, 2},

		{"ls bad flag", []string{"ls", "-bogus"}, 2},
		{"ls no archive", []string{"ls"}, 2},
		{"ls stray argument", []string{"ls", "-archive", "x", "extra"}, 2},
		{"show bad flag", []string{"show", "-bogus"}, 2},
		{"show no id", []string{"show", "-archive", "x"}, 2},
		{"compare bad flag", []string{"compare", "-bogus"}, 2},
		{"compare no selectors", []string{"compare", "-archive", "x"}, 2},
		{"report bad flag", []string{"report", "-bogus"}, 2},
		{"report no archive", []string{"report"}, 2},
		{"gate bad flag", []string{"gate", "-bogus"}, 2},
		{"gate no baseline", []string{"gate", "-archive", "x"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := ctl(t, tc.args...)
			if code != tc.want {
				t.Fatalf("%v exited %d (stderr %q), want %d", tc.args, code, stderr, tc.want)
			}
			if tc.want == 2 && stderr == "" {
				t.Fatalf("%v: usage error must print a message", tc.args)
			}
		})
	}

	// Every registered subcommand must reject an unknown flag with 2, so a
	// future subcommand cannot regress to ExitOnError/panic behavior.
	for name := range subcommands {
		args := []string{name, "-definitely-not-a-flag"}
		if name == "scenario" {
			args = []string{name, "lint", "-definitely-not-a-flag"}
		}
		if code, _, _ := ctl(t, args...); code != 2 {
			t.Errorf("subcommand %q with bad flag exited %d, want 2", name, code)
		}
	}
}

// TestArchiveCLIWorkflow drives ls and show over a recorded sweep.
func TestArchiveCLIWorkflow(t *testing.T) {
	dir := buildTestArchive(t)

	code, out, stderr := ctl(t, "ls", "-archive", dir)
	if code != 0 {
		t.Fatalf("ls exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "4 run(s)") {
		t.Fatalf("ls should list 4 runs:\n%s", out)
	}
	if !strings.Contains(out, "bulletprime") || !strings.Contains(out, "bittorrent") {
		t.Fatalf("ls missing protocols:\n%s", out)
	}

	// Dedupe through the CLI: re-running the same sweep adds nothing.
	if code, _, stderr := ctl(t, "sweep",
		"-nodes", "10", "-filemb", "1", "-seeds", "2",
		"-protocols", "bulletprime,bittorrent", "-parallel", "2",
		"-archive", dir); code != 0 {
		t.Fatalf("re-sweep exited %d: %s", code, stderr)
	}
	_, out, _ = ctl(t, "ls", "-archive", dir)
	if !strings.Contains(out, "4 run(s)") {
		t.Fatalf("identical re-sweep must dedupe to 4 runs:\n%s", out)
	}

	// Filtered ls.
	_, out, _ = ctl(t, "ls", "-archive", dir, "-filter", "protocol=bittorrent,seed=1")
	if !strings.Contains(out, "1 run(s)") {
		t.Fatalf("filtered ls should match 1 run:\n%s", out)
	}

	// show by unique id prefix.
	arch, err := lab.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	code, out, stderr = ctl(t, "show", "-archive", dir, metas[0].ID[:10])
	if code != 0 {
		t.Fatalf("show exited %d: %s", code, stderr)
	}
	for _, want := range []string{"protocol:", "completion-time quantiles", "config:", metas[0].ID} {
		if !strings.Contains(out, want) {
			t.Fatalf("show output missing %q:\n%s", want, out)
		}
	}
	if code, _, _ := ctl(t, "show", "-archive", dir, "ffffffffff"); code != 1 {
		t.Fatal("show with an unmatched id should exit 1")
	}

	// A read-side subcommand must not create a mistyped archive directory.
	absent := filepath.Join(t.TempDir(), "no-such-archive")
	if code, _, _ := ctl(t, "ls", "-archive", absent); code != 1 {
		t.Fatal("ls over a nonexistent archive should exit 1")
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Fatal("ls must not create the archive directory as a side effect")
	}
}

// TestCompareGolden pins `bulletctl compare` output for a two-protocol
// sweep byte-for-byte: the deterministic simulation plus the
// deterministic archive make the whole report reproducible.
func TestCompareGolden(t *testing.T) {
	dir := buildTestArchive(t)
	code, out, stderr := ctl(t, "compare", "-archive", dir,
		"-a", "protocol=bulletprime", "-b", "protocol=bittorrent",
		"-label-a", "bulletprime", "-label-b", "bittorrent")
	if code != 0 {
		t.Fatalf("compare exited %d: %s", code, stderr)
	}
	golden.File(t, "compare_golden.md", []byte(out))

	// An empty side is a runtime error, not an empty report.
	if code, _, _ := ctl(t, "compare", "-archive", dir,
		"-a", "protocol=bulletprime", "-b", "protocol=absent"); code != 1 {
		t.Fatal("compare with an empty side should exit 1")
	}
}

// TestReportCLI exercises report to stdout and to -o FILE.
func TestReportCLI(t *testing.T) {
	dir := buildTestArchive(t)
	code, out, stderr := ctl(t, "report", "-archive", dir)
	if code != 0 {
		t.Fatalf("report exited %d: %s", code, stderr)
	}
	for _, want := range []string{
		"# Experiment archive report",
		"| bulletprime/modelnet | 2 | 2 |",
		"| bittorrent/modelnet | 2 | 2 |",
		"download time CDF",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	outFile := filepath.Join(t.TempDir(), "REPORT.md")
	if code, _, stderr := ctl(t, "report", "-archive", dir, "-o", outFile); code != 0 {
		t.Fatalf("report -o exited %d: %s", code, stderr)
	}
	written, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != out {
		t.Fatal("report -o content differs from stdout content")
	}
}

// TestGateCLI is the regression-gate acceptance test: gate passes against
// a baseline captured from the real current build and fails non-zero when
// a regression is injected into that baseline.
func TestGateCLI(t *testing.T) {
	dir := buildTestArchive(t)
	baseline := filepath.Join(t.TempDir(), "baseline.json")

	// Capture the current build as the baseline.
	code, out, stderr := ctl(t, "gate", "-archive", dir, "-baseline", baseline, "-write", "-tol", "0.15")
	if code != 0 {
		t.Fatalf("gate -write exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "2 group(s)") {
		t.Fatalf("gate -write should capture both protocol groups:\n%s", out)
	}

	// The real current build passes its own baseline.
	code, out, stderr = ctl(t, "gate", "-archive", dir, "-baseline", baseline)
	if code != 0 {
		t.Fatalf("gate against own baseline exited %d:\n%s%s", code, out, stderr)
	}
	if !strings.Contains(out, "gate ok") {
		t.Fatalf("passing gate output:\n%s", out)
	}

	// Injected regression: shrink the committed values so the current
	// build exceeds tolerance; the gate must exit non-zero.
	var base lab.Baseline
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	for k, v := range base.Entries {
		base.Entries[k] = v * 0.5
	}
	if err := base.Save(baseline); err != nil {
		t.Fatal(err)
	}
	code, out, _ = ctl(t, "gate", "-archive", dir, "-baseline", baseline)
	if code != 1 {
		t.Fatalf("gate with injected regression exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "gate FAILED") {
		t.Fatalf("failing gate output:\n%s", out)
	}

	// A corrupt baseline file is a runtime error.
	if err := os.WriteFile(baseline, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := ctl(t, "gate", "-archive", dir, "-baseline", baseline); code != 1 {
		t.Fatal("gate with a corrupt baseline should exit 1")
	}
	// An absent baseline file is a runtime error too.
	if code, _, _ := ctl(t, "gate", "-archive", dir, "-baseline",
		filepath.Join(t.TempDir(), "absent.json")); code != 1 {
		t.Fatal("gate with a missing baseline should exit 1")
	}
}
