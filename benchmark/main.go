// Command benchmark is this repository's benchmark: five workloads, eight
// end-to-end metrics measured through the public façade, and per-layer
// metrics from a separate traced run. README.md is its manual;
// ../BENCHMARK.json is its contract with the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bulletprime"
)

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workload names (default: all)")
		seed    = flag.Int64("seed", 1, "workload seed; all randomness derives from it")
		reps    = flag.Int("reps", 3, "repetitions per workload, interleaved round-robin")
		seconds = flag.Float64("seconds", 0, "measure each workload for about this long instead of -reps repetitions")
		trace   = flag.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics instead")
		asJSON  = flag.Bool("json", false, "print only the JSON result line of each workload")
		out     = flag.String("out", ".bench_build/out", "directory for span files and scratch archives")
		smoke   = flag.Bool("smoke", false, "run at about a twentieth of the size (what smoke_test.go runs); numbers are not comparable")
		child   = flag.String("child", "", "internal: run one repetition of this kind in this process")
		serial  = flag.Bool("serial", false, "internal: sharded oracle mode (ShardWorkers 1)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var selected []*workload
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			os.Exit(2)
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = workloads
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *child != "" {
		os.Exit(childMain(*child, selected[0], *seed, *smoke, *serial, *out))
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	s := newSession(exe, *seed, *smoke, *out)
	var reports map[*workload]*report
	if *trace != 0 {
		reports = s.traced(selected)
	} else {
		reports = s.endToEnd(selected, *reps, *seconds)
	}
	correct := true
	for _, w := range selected {
		r := reports[w]
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
		}
		if !*asJSON {
			for _, d := range defs {
				m := r.Metrics[d.name]
				fmt.Printf("%-14s %-26s %16s %-6s n=%d\n", w.name, d.name, formatValue(m.Value), m.Unit, m.N)
			}
		}
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		correct = correct && r.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// formatValue prints a value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// childResult is what one child process reports on its standard output.
type childResult struct {
	Outcome outcome            `json:"outcome"`
	Usage   usage              `json:"usage"`
	SetupS  []float64          `json:"setup_s,omitempty"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	Error   string             `json:"error,omitempty"`
	// PeakRSSMB is the child's ru_maxrss, read by the parent.
	PeakRSSMB float64 `json:"-"`
}

// childMain runs one repetition of the given kind in this process and prints
// its childResult. Every repetition gets a fresh process so heap state and
// ru_maxrss never leak between workloads.
func childMain(kind string, w *workload, seed int64, smoke, serial bool, out string) int {
	p := w.params(smoke)
	var res childResult
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		switch kind {
		case "setup":
			// Set-up can be milliseconds; repeat it until the median is
			// worth reporting.
			for spent := 0.0; len(res.SetupS) < 3 || (spent < 1 && len(res.SetupS) < 15); {
				start := time.Now()
				if err := w.setUp(p, seed, out); err != nil {
					return err
				}
				d := time.Since(start).Seconds()
				res.SetupS = append(res.SetupS, d)
				spent += d
			}
		case "run":
			res.Usage = measure(func() { res.Outcome, err = w.run(p, seed, serial, out) })
		case "traced":
			res.Outcome, res.Usage, res.Layer, err = w.traced(p, seed, out, spanPath(out, w, seed))
		default:
			err = fmt.Errorf("unknown child kind %q", kind)
		}
		return err
	}()
	if err != nil {
		res.Error = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func spanPath(out string, w *workload, seed int64) string {
	return filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.json", w.name, seed))
}

// session is one invocation of the benchmark: it generates all load from
// child processes of this one, one at a time, each with GOMAXPROCS capped at
// procs, so the process tree never has more runnable threads than that.
type session struct {
	exe   string
	seed  int64
	smoke bool
	out   string
	procs int
	// calibs is every calibration taken this session; its median is what a
	// repetition's own calibration is compared against.
	calibs []float64
}

// newSession caps GOMAXPROCS at min(NumCPU, 4) and takes three calibrations
// up front, so the session median has something to stand on.
func newSession(exe string, seed int64, smoke bool, out string) *session {
	s := &session{exe: exe, seed: seed, smoke: smoke, out: out, procs: min(runtime.NumCPU(), 4)}
	for i := 0; i < 3; i++ {
		s.calibrate()
	}
	return s
}

func (s *session) calibrate() float64 {
	c := calibrate()
	s.calibs = append(s.calibs, c)
	return c
}

// drifted reports whether calibration c is more than 10 % off the session
// median: the host, not the code, changed speed.
func (s *session) drifted(c float64) bool {
	m := median(s.calibs)
	return math.Abs(c-m) > 0.10*m
}

// child runs one repetition of w in a fresh process.
func (s *session) child(kind string, w *workload, serial bool) childResult {
	args := []string{"-child", kind, "-workload", w.name, "-seed", strconv.FormatInt(s.seed, 10), "-out", s.out}
	if s.smoke {
		args = append(args, "-smoke")
	}
	if serial {
		args = append(args, "-serial")
	}
	cmd := exec.Command(s.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(s.procs))
	cmd.Stderr = os.Stderr
	// A parent killed mid-run (a driver timeout) must not leave its child
	// running. Pdeathsig follows the thread that forked, so that thread is
	// held for the child's lifetime.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	stdout, err := cmd.Output()
	var res childResult
	if err != nil {
		res.Error = fmt.Sprintf("%s child of %s: %v", kind, w.name, err)
		return res
	}
	if err := json.Unmarshal(stdout, &res); err != nil {
		res.Error = fmt.Sprintf("%s child of %s: unreadable result: %v", kind, w.name, err)
		return res
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res
}

// tally accumulates one workload's operations and output-check failures over
// every repetition made of it.
type tally struct {
	w                 *workload
	ops               int // operations one repetition attempts
	attempted, failed int
	digest            string
	problems          []string
}

// count folds one repetition into the tally. A repetition that errored, or
// whose sim_digest differs from an earlier one's at the same seed, fails all
// of its operations.
func (t *tally) count(what string, res childResult) {
	t.attempted += t.ops
	switch {
	case res.Error != "":
		t.failed += t.ops
		t.problems = append(t.problems, what+": "+res.Error)
		return
	case res.Outcome.Attempted != t.ops:
		t.failed += t.ops
		t.problems = append(t.problems, fmt.Sprintf("%s: attempted %d operations, want %d", what, res.Outcome.Attempted, t.ops))
	case t.digest != "" && res.Outcome.Digest != t.digest:
		t.failed += t.ops
		t.problems = append(t.problems, fmt.Sprintf("%s: sim_digest %s differs from %s at the same seed", what, res.Outcome.Digest, t.digest))
	default:
		t.failed += res.Outcome.Failed
	}
	if t.digest == "" {
		t.digest = res.Outcome.Digest
	}
	for _, p := range res.Outcome.Problems {
		t.problems = append(t.problems, what+": "+p)
	}
}

func (t *tally) report(defs []metricDef, values map[string]float64, counts map[string]int) *report {
	for _, p := range t.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", t.w.name, p)
	}
	return &report{
		Correct:   t.failed == 0 && len(t.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   fill(defs, values, counts),
	}
}

// endToEnd measures the selected workloads with tracing off: one set-up
// child each, then repetitions interleaved round-robin across workloads
// rather than back to back, so slow host drift lands on all of them alike.
// With seconds > 0 a workload repeats while another repetition still fits in
// about that much measuring time; otherwise it repeats reps times.
func (s *session) endToEnd(ws []*workload, reps int, seconds float64) map[*workload]*report {
	type state struct {
		tally  tally
		setups []float64
		runs   []childResult
		spent  float64 // wall seconds of run children, discarded ones included
	}
	states := make(map[*workload]*state)
	for _, w := range ws {
		st := &state{tally: tally{w: w, ops: w.ops(w.params(s.smoke))}}
		states[w] = st
		setup := s.child("setup", w, false)
		if setup.Error != "" {
			st.tally.problems = append(st.tally.problems, setup.Error)
		}
		st.setups = setup.SetupS
	}
	fits := func(st *state) bool {
		if seconds <= 0 {
			return len(st.runs) < reps
		}
		n := len(st.runs)
		return n == 0 || st.spent+st.spent/float64(n) <= 1.1*seconds
	}
	for again := true; again; {
		again = false
		for _, w := range ws {
			st := states[w]
			if !fits(st) {
				continue
			}
			again = true
			calib := s.calibrate()
			res := s.child("run", w, false)
			st.spent += res.Usage.WallS
			if s.drifted(calib) && res.Error == "" && fits(st) {
				// The host changed speed under this repetition: make it
				// again, once, and keep the second whatever it shows.
				fmt.Fprintf(os.Stderr, "benchmark: %s: host.calib_ms %.2f is off the session median %.2f; repeating\n",
					w.name, calib, median(s.calibs))
				s.calibrate()
				res = s.child("run", w, false)
				st.spent += res.Usage.WallS
			}
			st.tally.count(fmt.Sprintf("repetition %d", len(st.runs)), res)
			st.runs = append(st.runs, res)
		}
	}

	reports := make(map[*workload]*report)
	for _, w := range ws {
		st := states[w]
		col := func(f func(childResult) float64) []float64 {
			var vs []float64
			for _, r := range st.runs {
				if r.Error == "" {
					vs = append(vs, f(r))
				}
			}
			return vs
		}
		cols := map[string][]float64{
			"setup_s":      st.setups,
			"wall_s":       col(func(r childResult) float64 { return r.Usage.WallS }),
			"cpu_s":        col(func(r childResult) float64 { return r.Usage.CPUS }),
			"peak_rss_mb":  col(func(r childResult) float64 { return r.PeakRSSMB }),
			"allocs":       col(func(r childResult) float64 { return float64(r.Usage.Allocs) }),
			"sim_median_s": col(func(r childResult) float64 { return r.Outcome.SimMedian }),
			"sim_worst_s":  col(func(r childResult) float64 { return r.Outcome.SimWorst }),
		}
		values := map[string]float64{
			"completed_share": 1 - ratio(float64(st.tally.failed), float64(st.tally.attempted)),
		}
		counts := map[string]int{"completed_share": st.tally.attempted}
		for name, vs := range cols {
			values[name] = median(vs)
			counts[name] = len(vs)
		}
		virtual := median(col(func(r childResult) float64 { return r.Outcome.VirtualS }))
		fmt.Fprintf(os.Stderr, "benchmark: %s: seed %d  sim_digest %s  sim.wall_per_virtual_s %s  host.gomaxprocs %d  host.calib_ms %s\n",
			w.name, s.seed, st.tally.digest, formatValue(ratio(values["wall_s"], virtual)), s.procs, formatValue(median(s.calibs)))
		reports[w] = st.tally.report(endToEnd, values, counts)
	}
	return reports
}

// traced makes each selected workload's traced run and assembles its
// per-layer metrics. End-to-end numbers never come from here: the untraced
// repetition made alongside exists to check that observing changes nothing
// (same sim_digest) and to price the tracing (trace.overhead_ratio).
func (s *session) traced(ws []*workload) map[*workload]*report {
	reports := make(map[*workload]*report)
	for _, w := range ws {
		p := w.params(s.smoke)
		t := tally{w: w, ops: w.ops(p)}
		calibs := []float64{s.calibrate()}
		plain := s.child("run", w, false)
		t.count("untraced run", plain)
		calibs = append(calibs, s.calibrate())
		traced := s.child("traced", w, false)
		t.count("traced run", traced)

		layer := traced.Layer
		if layer == nil {
			layer = map[string]float64{}
		}
		layer["host.calib_ms"] = median(calibs)
		layer["host.gomaxprocs"] = float64(s.procs)
		layer["trace.overhead_ratio"] = ratio(traced.Usage.WallS, plain.Usage.WallS)
		layer["sim.wall_per_virtual_s"] = ratio(plain.Usage.WallS, plain.Outcome.VirtualS)
		if w.cells(p, s.seed)[0].Engine == bulletprime.EngineSharded {
			// The serial oracle: all shards on one goroutine. It must
			// reproduce the parallel run bit for bit; its wall over the
			// parallel wall is what the extra cores bought.
			oracle := s.child("run", w, true)
			t.count("serial oracle", oracle)
			layer["sim.shard_speedup"] = ratio(oracle.Usage.WallS, plain.Usage.WallS)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: seed %d  sim_digest %s  spans %s\n", w.name, s.seed, t.digest, spanPath(s.out, w, s.seed))
		reports[w] = t.report(perLayer, layer, nil)
	}
	return reports
}
