package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bulletprime/internal/lab"
)

// runPerfGate checks `go test -bench -benchmem` output against the
// committed micro-benchmark baseline (BENCH_PERF.json): allocs/op compare
// exactly — the allocation-free event core's tripwire — and ns/op within
// the baseline's generous fractional tolerance. Exit 0 within bounds, 1 on
// regression (or missing benchmark, or -write failure). -write captures
// the input as the new baseline instead of checking; regenerate with the
// exact benchmark command CI runs (see .github/workflows/ci.yml) so
// -benchtime effects match, and commit the result alongside the change
// that moved the numbers — the same flow as `bulletctl gate -write`.
func runPerfGate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate", flag.ContinueOnError)
	input := fs.String("input", "-", "benchmark output file, or - for stdin")
	baseFile := fs.String("baseline", "", "perf baseline JSON file (e.g. BENCH_PERF.json)")
	tol := fs.Float64("tol", 1.0, "fractional ns/op tolerance for -write, e.g. 1.0 = +100%")
	write := fs.Bool("write", false, "capture the input as the new baseline and exit")
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if *baseFile == "" {
		fmt.Fprintln(stderr, "usage: go test -run '^$' -bench ... -benchmem ./... | bulletctl perfgate -baseline BENCH_PERF.json [-write]")
		return 2
	}

	var r io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	measured, err := lab.ParseBenchOutput(r)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}

	if *write {
		base, err := lab.PerfBaselineFrom(measured, *tol)
		if err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		// ns_ceiling values are hand-set relations, not measurements, and
		// the trajectory is hand-written history — carry both over from the
		// baseline being replaced so -write does not silently drop them.
		if old, err := lab.LoadPerfBaseline(*baseFile); err == nil {
			base.Trajectory = old.Trajectory
			for name, oe := range old.Benchmarks {
				if oe.NsCeiling > 0 {
					if ne, ok := base.Benchmarks[name]; ok {
						ne.NsCeiling = oe.NsCeiling
						base.Benchmarks[name] = ne
					}
				}
			}
		}
		if err := base.Save(*baseFile); err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s: ns tolerance %g, %d benchmark(s)\n",
			*baseFile, base.NsTolerance, len(base.Benchmarks))
		return 0
	}

	base, err := lab.LoadPerfBaseline(*baseFile)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	results, ok := base.Gate(measured)
	fmt.Fprint(stdout, lab.RenderPerfGate(results, ok))
	if !ok {
		return 1
	}
	return 0
}
