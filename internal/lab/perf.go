package lab

// Perf gate: the micro-benchmark counterpart of the archive Baseline/Gate.
// Where gate.go pins protocol-level completion-time metrics, the perf gate
// pins Go-level benchmark costs — ns/op with a generous CI-noise tolerance
// and allocs/op exactly, because the allocation-free event core's whole
// point is a number that must stay at zero. The committed form is
// BENCH_PERF.json; regenerate with `bulletctl perfgate -write` (same flow
// as `bulletctl gate -write`) when a change legitimately moves the numbers,
// using the exact benchmark command CI runs so -benchtime effects match.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// PerfEntry is one benchmark's pinned costs.
type PerfEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// NsCeiling, when positive, is an absolute ns/op bound checked with NO
	// tolerance: the measurement must come in at or under the ceiling, full
	// stop. It pins relations between benchmarks rather than drift of one —
	// e.g. the parallel sharded run must finish within the sequential run's
	// recorded wall time. Ceilings are set by hand in BENCH_PERF.json;
	// `perfgate -write` carries them over to the regenerated baseline.
	NsCeiling float64 `json:"ns_ceiling,omitempty"`

	// bytesPerOp is the measured B/op. Go rounds allocs/op down, so a run
	// that allocated less than once per op reads 0 allocs/op; its bytes
	// still show, and the gate fails a row pinned at 0 allocs/op on them.
	bytesPerOp float64
}

// PerfBaseline is the committed benchmark baseline (BENCH_PERF.json).
type PerfBaseline struct {
	// NsTolerance is the allowed fractional ns/op regression: measured
	// values up to ns_per_op * (1 + NsTolerance) pass. Deliberately
	// generous — shared CI runners are noisy — because allocs/op is the
	// precise tripwire.
	NsTolerance float64 `json:"ns_tolerance"`
	// Benchmarks maps the benchmark name (without the -cpu suffix) to its
	// pinned entry.
	Benchmarks map[string]PerfEntry `json:"benchmarks"`
	// Trajectory is the file's history: one hand-written line per change
	// that moved a pinned number (what moved, from what to what). The gate
	// ignores it; `perfgate -write` carries it over.
	Trajectory []string `json:"trajectory,omitempty"`
}

// ParseBenchOutput extracts per-benchmark metrics from `go test -bench
// -benchmem` text: ns/op, allocs/op and B/op. Benchmark names have their
// -cpu suffix stripped; lines that are not benchmark results are ignored.
// The lines of one benchmark repeated (`-count N`) merge into one entry:
// the lowest ns/op, which is the least disturbed by a noisy host, and the
// highest allocs/op and B/op, so a pin never rests on a lucky run.
func ParseBenchOutput(r io.Reader) (map[string]PerfEntry, error) {
	out := map[string]PerfEntry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		entry := PerfEntry{NsPerOp: -1, AllocsPerOp: -1}
		// fields[1] is the iteration count; the rest are "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("lab: bench line %q: bad value %q", sc.Text(), fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				entry.NsPerOp = v
			case "allocs/op":
				entry.AllocsPerOp = v
			case "B/op":
				entry.bytesPerOp = v
			}
		}
		if !isCost(entry.NsPerOp) {
			return nil, fmt.Errorf("lab: bench line %q: no finite, non-negative ns/op", sc.Text())
		}
		if !isCost(entry.AllocsPerOp) {
			return nil, fmt.Errorf("lab: bench line %q: no finite, non-negative allocs/op (run with -benchmem)", sc.Text())
		}
		if !isCost(entry.bytesPerOp) {
			return nil, fmt.Errorf("lab: bench line %q: B/op is not finite and non-negative", sc.Text())
		}
		if prev, ok := out[name]; ok {
			entry.NsPerOp = min(entry.NsPerOp, prev.NsPerOp)
			entry.AllocsPerOp = max(entry.AllocsPerOp, prev.AllocsPerOp)
			entry.bytesPerOp = max(entry.bytesPerOp, prev.bytesPerOp)
		}
		out[name] = entry
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lab: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lab: no benchmark results in input")
	}
	return out, nil
}

// isCost reports whether v can be a measured ns/op, allocs/op or B/op.
// ParseFloat accepts "NaN" and "Inf", which no gate comparison can judge.
func isCost(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// PerfBaselineFrom captures measured results as a new baseline. A row that
// reads 0 allocs/op beside a positive B/op allocated less than once per op,
// so it is pinned at 1 allocs/op, the whole ceiling of its count: only a row
// that allocated nothing is pinned at 0, and every baseline passes the
// measurements it was captured from.
func PerfBaselineFrom(measured map[string]PerfEntry, nsTolerance float64) (*PerfBaseline, error) {
	if nsTolerance < 0 {
		return nil, fmt.Errorf("lab: negative perf tolerance %v", nsTolerance)
	}
	b := &PerfBaseline{NsTolerance: nsTolerance, Benchmarks: map[string]PerfEntry{}}
	for name, e := range measured {
		if e.AllocsPerOp == 0 && e.bytesPerOp > 0 {
			e.AllocsPerOp = 1
		}
		b.Benchmarks[name] = e
	}
	return b, nil
}

// LoadPerfBaseline reads a committed perf baseline.
func LoadPerfBaseline(path string) (*PerfBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lab: %w", err)
	}
	var b PerfBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lab: perf baseline %s: %w", path, err)
	}
	if b.NsTolerance < 0 {
		return nil, fmt.Errorf("lab: perf baseline %s: negative tolerance %v", path, b.NsTolerance)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("lab: perf baseline %s: no benchmarks", path)
	}
	return &b, nil
}

// Save writes the baseline as stable, diff-friendly JSON.
func (b *PerfBaseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	return nil
}

// PerfGateResult is one benchmark's verdict.
type PerfGateResult struct {
	Name    string
	Base    PerfEntry
	Current PerfEntry
	NsLimit float64
	// At most one of these is set; a result with none set passed.
	Missing         bool // baseline benchmark absent from the input
	NsRegressed     bool // ns/op beyond the tolerated limit
	AllocRegressed  bool // allocs/op above the exact pinned value, or bytes on a row pinned at 0
	CeilingExceeded bool // ns/op above the absolute ns_ceiling (no tolerance)
	New             bool // measured benchmark absent from the baseline (informational)
}

// Gate evaluates measured results against the baseline: every pinned
// benchmark must be present, its allocs/op must not exceed the pinned value
// (exact comparison — this is the allocation-free regression tripwire; a
// row pinned at 0 must also measure 0 B/op), and its ns/op must stay within
// the fractional tolerance. New benchmarks are reported but never fail;
// they become entries on the next -write.
func (b *PerfBaseline) Gate(measured map[string]PerfEntry) ([]PerfGateResult, bool) {
	names := map[string]bool{}
	for n := range b.Benchmarks {
		names[n] = true
	}
	for n := range measured {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	ok := true
	var out []PerfGateResult
	for _, name := range ordered {
		base, inBase := b.Benchmarks[name]
		cur, inCur := measured[name]
		r := PerfGateResult{Name: name, Base: base, Current: cur,
			NsLimit: base.NsPerOp * (1 + b.NsTolerance)}
		switch {
		case !inBase:
			r.New = true
		case !inCur:
			r.Missing = true
			ok = false
		case cur.AllocsPerOp > base.AllocsPerOp, base.AllocsPerOp == 0 && cur.bytesPerOp > 0:
			r.AllocRegressed = true
			ok = false
		case base.NsCeiling > 0 && cur.NsPerOp > base.NsCeiling:
			r.CeilingExceeded = true
			ok = false
		case cur.NsPerOp > r.NsLimit:
			r.NsRegressed = true
			ok = false
		}
		out = append(out, r)
	}
	return out, ok
}

// RenderPerfGate formats gate results as the table `bulletctl perfgate`
// prints.
func RenderPerfGate(results []PerfGateResult, ok bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-36s %14s %14s %12s %12s  %s\n",
		"benchmark", "base ns/op", "cur ns/op", "base allocs", "cur allocs", "verdict")
	for _, r := range results {
		verdict := "ok"
		switch {
		case r.AllocRegressed && r.Current.AllocsPerOp == 0:
			verdict = fmt.Sprintf("ALLOCS REGRESSED (%g B/op)", r.Current.bytesPerOp)
		case r.AllocRegressed:
			verdict = "ALLOCS REGRESSED"
		case r.CeilingExceeded:
			verdict = fmt.Sprintf("NS CEILING EXCEEDED (%.0f)", r.Base.NsCeiling)
		case r.NsRegressed:
			verdict = "NS REGRESSED"
		case r.Missing:
			verdict = "MISSING"
		case r.New:
			verdict = "new"
		}
		baseNs, baseAllocs := "-", "-"
		if !r.New {
			baseNs = fmt.Sprintf("%.0f", r.Base.NsPerOp)
			baseAllocs = fmt.Sprintf("%.0f", r.Base.AllocsPerOp)
		}
		curNs, curAllocs := "-", "-"
		if !r.Missing {
			curNs = fmt.Sprintf("%.0f", r.Current.NsPerOp)
			curAllocs = fmt.Sprintf("%.0f", r.Current.AllocsPerOp)
		}
		fmt.Fprintf(&sb, "%-36s %14s %14s %12s %12s  %s\n",
			r.Name, baseNs, curNs, baseAllocs, curAllocs, verdict)
	}
	if ok {
		sb.WriteString("perf gate ok (allocs exact, ns/op within tolerance)\n")
	} else {
		sb.WriteString("perf gate FAILED (regenerate with 'bulletctl perfgate -write' only if the change is intended)\n")
	}
	return sb.String()
}
