package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bulletprime"
)

// TestRunProgressSharded is the exit-code/output table for `run -progress`
// across engines: the sharded engine streams real progress lines now that
// sharded sampling exists, and engine misconfigurations keep their distinct
// exit codes.
func TestRunProgressSharded(t *testing.T) {
	shardedArgs := []string{"-engine", "sharded", "-network", "clustered",
		"-protocol", "scalefill", "-nodes", "100", "-filemb", "1.5",
		"-seed", "7", "-deadline", "60"}
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string // required stderr substring
	}{
		{"sharded with progress", append([]string{"-progress", "-every", "10"}, shardedArgs...),
			0, "100/100 done"},
		{"sharded without progress", shardedArgs, 0, ""},
		{"unknown engine", []string{"-engine", "warp"}, 2, "unknown engine"},
		{"shards without sharded engine", []string{"-shards", "4"}, 1, "EngineSharded"},
		{"sharded on sequential-only network", []string{"-engine", "sharded",
			"-protocol", "scalefill"}, 1, "clustered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runRun(t, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d (stderr %q), want %d", code, stderr, tc.want)
			}
			if tc.stderr != "" && !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("stderr %q missing %q", stderr, tc.stderr)
			}
			if tc.want == 0 && !strings.Contains(stdout, "completions") {
				t.Fatalf("successful run printed no summary:\n%s", stdout)
			}
		})
	}
}

// archiveOneRun records one small run (with a time-series) into a fresh
// archive and returns the directory and run id.
func archiveOneRun(t *testing.T) (dir, id string) {
	t.Helper()
	dir = t.TempDir()
	arch, err := bulletprime.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Nodes:       10,
		FileBytes:   1e6,
		Seed:        3,
		Deadline:    3600,
		SampleEvery: 2,
		Archive:     arch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if id = exp.RunID(); id == "" {
		t.Fatal("run did not archive")
	}
	return dir, id
}

func TestMetricsSubcommand(t *testing.T) {
	dir, id := archiveOneRun(t)
	invoke := func(args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := runMetrics(args, &out, &errb)
		return code, out.String(), errb.String()
	}

	code, stdout, stderr := invoke("-archive", dir, id)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		"# TYPE bullet_run_finished gauge",
		"# TYPE bullet_completions_total counter",
		`run="` + id + `"`,
		"bullet_sample_time_seconds", // the archived series' last sample
	} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, stdout)
		}
	}

	code, stdout, _ = invoke("-archive", dir, "-format", "json", id)
	if code != 0 {
		t.Fatalf("json format: exit %d", code)
	}
	var metrics []map[string]any
	if err := json.Unmarshal([]byte(stdout), &metrics); err != nil || len(metrics) == 0 {
		t.Fatalf("json output does not parse (%v):\n%s", err, stdout)
	}

	if code, _, _ = invoke("-archive", dir, "-format", "xml", id); code != 2 {
		t.Fatalf("unknown format: exit %d, want 2", code)
	}
	if code, _, _ = invoke("-archive", dir); code != 2 {
		t.Fatalf("missing run id: exit %d, want 2", code)
	}
	if code, _, _ = invoke("-archive", dir, "ffffffffffffffff"); code != 1 {
		t.Fatalf("unmatched run id: exit %d, want 1", code)
	}
	if code, _, _ = invoke("-archive", filepath.Join(dir, "absent"), id); code != 1 {
		t.Fatalf("missing archive: exit %d, want 1", code)
	}
}

func TestTraceSubcommand(t *testing.T) {
	invoke := func(args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := runTrace(args, &out, &errb)
		return code, out.String(), errb.String()
	}
	base := []string{"-nodes", "10", "-filemb", "1", "-seed", "3", "-deadline", "600"}

	// Chrome export to a file is a loadable trace_event JSON array.
	out := filepath.Join(t.TempDir(), "run.trace.json")
	code, stdout, stderr := invoke(append([]string{"-o", out}, base...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("-o wrote to stdout too: %q", stdout)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(blob, &events); err != nil || len(events) == 0 {
		t.Fatalf("chrome trace does not parse (%v)", err)
	}
	if events[0]["ph"] != "i" || events[0]["name"] == "" {
		t.Fatalf("event 0 = %v, want an instant event", events[0])
	}
	if !strings.Contains(stderr, "promote=") {
		t.Fatalf("stderr %q missing the per-kind counts", stderr)
	}

	// JSONL to stdout: one parseable span per line.
	code, stdout, _ = invoke(append([]string{"-format", "jsonl"}, base...)...)
	if code != 0 {
		t.Fatalf("jsonl: exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) == 0 {
		t.Fatal("jsonl: no spans")
	}
	var span map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil || span["kind"] == "" {
		t.Fatalf("jsonl line 0 does not parse (%v): %q", err, lines[0])
	}

	// A sharded trace exports the deterministically merged spans.
	code, stdout, _ = invoke("-engine", "sharded", "-network", "clustered",
		"-protocol", "scalefill", "-nodes", "100", "-filemb", "1.5",
		"-seed", "7", "-deadline", "60", "-format", "jsonl")
	if code != 0 {
		t.Fatalf("sharded trace: exit %d", code)
	}
	if n := len(strings.Split(strings.TrimSpace(stdout), "\n")); n != 300 {
		t.Fatalf("sharded trace exported %d spans, want 300 (100 nodes x 3 rounds)", n)
	}

	if code, _, _ = invoke(append([]string{"-format", "xml"}, base...)...); code != 2 {
		t.Fatalf("unknown format: exit %d, want 2", code)
	}
	if code, _, _ = invoke(append([]string{"extra"}, base...)...); code != 2 {
		t.Fatalf("positional arg: exit %d, want 2", code)
	}
}

// TestShowSeriesSummary checks the show subcommand renders the archived
// time-series digest (satellite of the observability plane: archived runs
// are inspectable without re-export).
func TestShowSeriesSummary(t *testing.T) {
	dir, id := archiveOneRun(t)
	var out, errb bytes.Buffer
	if code := runShow([]string{"-archive", dir, id}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"series (", "metric", "first", "max", "completed", "goodput_bps", "data_bytes"} {
		if !strings.Contains(got, want) {
			t.Fatalf("show output missing %q:\n%s", want, got)
		}
	}
	// No streaming or testbed columns for a plain one-shot run.
	if strings.Contains(got, "stream_lag") || strings.Contains(got, "testbed_rtt") {
		t.Fatalf("show output renders optional columns the run never populated:\n%s", got)
	}
}

// TestServeMetricsLive drives the `run -metrics-addr` scrape endpoint: a
// live observer feeds the latest sample, and both renderings serve it.
func TestServeMetricsLive(t *testing.T) {
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Nodes:     10,
		FileBytes: 1e6,
		Seed:      3,
		Deadline:  3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	var errb bytes.Buffer
	labels := map[string]string{"protocol": "bulletprime", "network": "modelnet", "seed": "3"}
	m, err := serveMetrics("127.0.0.1:0", exp, labels, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-m.drained // the final sample is stored
	get := func(path string) string {
		resp, err := http.Get("http://" + m.addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	prom := get("/metrics")
	// The endpoint serves the run's closing sample: every receiver is done.
	for _, want := range []string{
		"# TYPE bullet_completed_receivers gauge",
		`bullet_completed_receivers{network="modelnet",protocol="bulletprime",seed="3"} 9`,
		`bullet_receivers{network="modelnet",protocol="bulletprime",seed="3"} 9`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}
	var metrics []map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &metrics); err != nil || len(metrics) == 0 {
		t.Fatalf("/metrics.json does not parse (%v)", err)
	}
	m.close()
	if !strings.Contains(errb.String(), "serving live metrics") {
		t.Fatalf("bound address not reported: %q", errb.String())
	}
}
