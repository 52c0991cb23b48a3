package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bulletprime/internal/golden"
)

// lint runs the scenario-lint verb against args and returns its exit code
// plus captured output.
func lint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = runScenario(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestScenarioLintExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	doc := `{"name": "lint-me", "events": [
		{"kind": "set_bw", "at": 5, "links": {"frac": 0.5, "dir": "in"}, "bw_kbps": 500}
	]}`
	if err := os.WriteFile(good, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x", "events": [{"kind": "warp"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// 0: valid scenario prints the timeline and ok.
	code, stdout, _ := lint(t, "lint", "-nodes", "20", good)
	if code != 0 {
		t.Fatalf("valid scenario: exit %d, want 0", code)
	}
	if !strings.Contains(stdout, "lint-me") || !strings.Contains(stdout, "ok: ") {
		t.Fatalf("valid scenario output missing timeline/ok: %q", stdout)
	}

	// 1: missing file.
	if code, _, stderr := lint(t, "lint", filepath.Join(dir, "absent.json")); code != 1 || stderr == "" {
		t.Fatalf("missing file: exit %d (stderr %q), want 1 with message", code, stderr)
	}

	// 1: file that parses but fails validation (unknown event kind).
	if code, _, _ := lint(t, "lint", bad); code != 1 {
		t.Fatalf("invalid scenario: exit %d, want 1", code)
	}

	// 1: a process that would fire again every 1e-300 s, and so never let a
	// run's clock advance.
	hang := filepath.Join(dir, "hang.json")
	if err := os.WriteFile(hang, []byte(`{"name": "hang", "events": [
		{"kind":"scale_bw","at":1,"period":1e-300,"factor":0.999,"links":{"pairs":[[1,2]]}}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := lint(t, "lint", hang); code != 1 || !strings.Contains(stderr, "period 1e-300s is below the 0.001s floor") {
		t.Fatalf("period 1e-300: exit %d (stderr %q), want 1 naming the floor", code, stderr)
	}

	// 0: explicit help is not a usage error.
	if code, _, stderr := lint(t, "lint", "-h"); code != 0 || !strings.Contains(stderr, "-nodes") {
		t.Fatalf("-h: exit %d (stderr %q), want 0 with usage text", code, stderr)
	}

	// 2: usage errors — wrong verb, no file, extra args.
	if code, _, _ := lint(t, "fold", good); code != 2 {
		t.Fatalf("bad verb: exit %d, want 2", code)
	}
	if code, _, _ := lint(t, "lint"); code != 2 {
		t.Fatalf("no file: exit %d, want 2", code)
	}
	if code, _, _ := lint(t, "lint", good, bad); code != 2 {
		t.Fatalf("two files: exit %d, want 2", code)
	}
	if code, _, _ := lint(t); code != 2 {
		t.Fatalf("no verb: exit %d, want 2", code)
	}
}

// runRun invokes the run verb in-process and returns its exit code plus
// captured output.
func runRun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = runSingle(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunStreamFlagExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
		msg  string // required stderr substring for usage errors
	}{
		{"bitrate without stream", []string{"-bitrate", "2"}, 2, "require -stream"},
		{"duration without stream", []string{"-duration", "30"}, 2, "require -stream"},
		{"playout without stream", []string{"-playout", "4"}, 2, "require -stream"},
		{"filemb with stream", []string{"-stream", "-filemb", "5"}, 2, "drop -filemb"},
		{"stream on sharded engine", []string{"-stream", "-engine", "sharded",
			"-network", "clustered", "-protocol", "scalefill"}, 1, "sequential engine"},
		{"stream on non-streaming protocol", []string{"-stream", "-nodes", "8",
			"-protocol", "bittorrent"}, 1, "does not support live streaming"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runRun(t, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d (stderr %q), want %d", code, stderr, tc.want)
			}
			if !strings.Contains(stderr, tc.msg) {
				t.Fatalf("stderr %q missing %q", stderr, tc.msg)
			}
		})
	}
}

// TestRunStreamSmall drives a real (tiny) streaming run through the CLI and
// checks the stream-metrics report shape.
func TestRunStreamSmall(t *testing.T) {
	code, stdout, stderr := runRun(t,
		"-stream", "-bitrate", "0.25", "-duration", "10",
		"-nodes", "8", "-network", "modelnet-clean", "-protocol", "bulletprime", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, col := range []string{"lag_p50_s", "rebuffers", "goodput_mbps", "viewers live"} {
		if !strings.Contains(stdout, col) {
			t.Fatalf("stream report missing %q:\n%s", col, stdout)
		}
	}
}

// TestRunPresetRefusesNodeCount: a node count the network preset cannot build
// is one line on stderr and exit 1, not a goroutine trace.
func TestRunPresetRefusesNodeCount(t *testing.T) {
	for _, network := range []string{"clustered", "clustered-compact"} {
		code, _, stderr := ctl(t, "run", "-network", network, "-nodes", "30", "-filemb", "1")
		if code != 1 {
			t.Fatalf("-network %s -nodes 30: exit %d, want 1", network, code)
		}
		if strings.Contains(stderr, "goroutine") || strings.Count(stderr, "\n") != 1 ||
			!strings.Contains(stderr, network) || !strings.Contains(stderr, "30 nodes") {
			t.Fatalf("-network %s -nodes 30: stderr %q, want one line naming the preset and the count", network, stderr)
		}
	}
}

// TestRunDynamicOnCompactClusters: -dynamic degrades core links toward its
// victims from every member, and the compact preset holds inter-cluster
// links fixed, so the run is one line naming the event and a link on stderr
// and exit 1, not a goroutine trace. On the dense clustered preset the same
// command prints the table it always has.
func TestRunDynamicOnCompactClusters(t *testing.T) {
	code, _, stderr := ctl(t, "run", "-nodes", "100", "-filemb", "1", "-dynamic", "-network", "clustered-compact")
	if code != 1 || strings.Contains(stderr, "goroutine") || strings.Count(stderr, "\n") != 1 ||
		!strings.Contains(stderr, `"synthetic-bandwidth-changes" event 0 (degrade at t=0s) changes core link 25→0`) {
		t.Fatalf("clustered-compact: exit %d, stderr %q, want 1 and one line naming the degrade and a fixed link", code, stderr)
	}
	code, stdout, stderr := ctl(t, "run", "-nodes", "100", "-filemb", "1", "-dynamic", "-network", "clustered")
	if code != 0 {
		t.Fatalf("clustered: exit %d, stderr %q", code, stderr)
	}
	golden.File(t, "run_dynamic_clustered.txt", []byte(stdout))
}

// TestSweepPooledMedianIsNearestRank pins the sweep's pooled median to the
// nearest-rank rule every other median in the repository uses: over an even
// number of seeds it is the lower middle of the per-seed medians.
func TestSweepPooledMedianIsNearestRank(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runSweep([]string{"-nodes", "8", "-filemb", "0.25", "-seeds", "4"}, &out, &errb); code != 0 {
		t.Fatalf("sweep: exit %d\n%s", code, errb.String())
	}
	var meds []float64
	pooled := ""
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 7 && f[0] == "bulletprime" {
			m, err := strconv.ParseFloat(f[4], 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			meds = append(meds, m)
		}
		if strings.Contains(line, "pooled median-of-medians") {
			pooled = line
		}
	}
	if len(meds) != 4 {
		t.Fatalf("%d per-seed rows, want 4:\n%s", len(meds), out.String())
	}
	sort.Float64s(meds)
	want := fmt.Sprintf("over 4 seeds: %.1f s", meds[1])
	if !strings.Contains(pooled, want) {
		t.Fatalf("pooled line %q, want %q (per-seed medians %v)", pooled, want, meds)
	}
}
