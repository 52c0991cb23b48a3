package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The benchmark measures in child processes of its own binary; under go test
// that binary is the test binary, so a -child invocation of it is handed to
// main.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// contract is the part of ../BENCHMARK.json the benchmark must agree with.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

type contractMetric struct{ Name, Unit string }

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkReport asserts that r carries each of want's names exactly once, with
// want's unit and a finite value, and no name want lacks.
func checkReport(t *testing.T, workload string, r *report, want []contractMetric) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", workload, len(r.Metrics), len(want))
	}
	seen := map[string]bool{}
	for _, m := range want {
		if seen[m.Name] {
			t.Errorf("BENCHMARK.json names %q twice", m.Name)
		}
		seen[m.Name] = true
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q uses characters outside letters, digits, '_', '.', '-'", m.Name)
		}
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", workload, m.Name)
		case got.Unit != m.Unit || got.Unit == "":
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v is not finite", workload, m.Name, got.Value)
		}
	}
	for name := range r.Metrics {
		if !seen[name] {
			t.Errorf("%s: emitted %s, which BENCHMARK.json lacks", workload, name)
		}
	}
}

// TestSmoke runs every workload end to end at about a twentieth of its size,
// untraced and traced, through the same child processes the real benchmark
// uses, and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, c.Workloads[i].Name, w.name)
		}
	}
	s := newSession(os.Args[0], 1, true, t.TempDir())
	untraced := s.endToEnd(workloads, 1, 0)
	traced := s.traced(workloads)
	for _, w := range workloads {
		checkReport(t, w.name, untraced[w], c.EndToEnd)
		checkReport(t, w.name+" traced", traced[w], c.PerLayer)
		for _, m := range c.EndToEnd {
			if v := untraced[w].Metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", w.name, m.Name, v)
			}
		}

		data, err := os.ReadFile(spanPath(s.out, w, s.seed))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: span file: %v", w.name, err)
		}
		ids := map[int]bool{0: true}
		for _, sp := range spans {
			ids[sp.ID] = true
		}
		slices := 0
		for _, sp := range spans {
			if !ids[sp.Parent] {
				t.Errorf("%s: span %d (%s) has no parent %d in the file", w.name, sp.ID, sp.Name, sp.Parent)
			}
			if sp.EndS < sp.StartS || sp.Run == "" || sp.Name == "" {
				t.Errorf("%s: malformed span %+v", w.name, sp)
			}
			if strings.HasPrefix(sp.Name, "sim.advance.") {
				slices++
			}
		}
		if slices < 10 {
			t.Errorf("%s: only %d sim.advance slices", w.name, slices)
		}
		if got := traced[w].Metrics["trace.spans"].Value; int(got) != len(spans) {
			t.Errorf("%s: trace.spans = %v, span file holds %d", w.name, got, len(spans))
		}
	}
}
