package main

// The archive subcommands: ls, show, compare, report, and gate operate on
// a persistent experiment archive recorded by `run -archive` and
// `sweep -archive` (or any program setting RunConfig.Archive). All output
// except timestamps is deterministic for a deterministic simulation, so
// compare/report/gate output is golden-testable and diff-friendly.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"bulletprime/internal/lab"
)

// openArchiveArg opens the mandatory -archive directory for a read-side
// subcommand. Unlike the run/sweep flag it must be provided, and it must
// already exist: a mistyped path is an error, not a fresh empty archive
// silently created as a side effect of listing it.
func openArchiveArg(dir string, stderr io.Writer) (*lab.Archive, int) {
	if dir == "" {
		fmt.Fprintln(stderr, "bulletctl: -archive DIR is required")
		return nil, 2
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		fmt.Fprintf(stderr, "bulletctl: archive %s: not an existing directory\n", dir)
		return nil, 1
	}
	arch, err := lab.Open(dir)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return nil, 1
	}
	return arch, -1
}

// selectRuns applies a -a/-b/-filter selector string against the archive.
func selectRuns(arch *lab.Archive, selector string, stderr io.Writer) ([]*lab.Run, int) {
	f, err := lab.ParseFilter(selector)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return nil, 2
	}
	runs, err := arch.Select(f)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return nil, 1
	}
	return runs, -1
}

// selectOne resolves a run id (or unambiguous id prefix) to its run.
func selectOne(arch *lab.Archive, id string, stderr io.Writer) (*lab.Run, int) {
	runs, code := selectRuns(arch, "id="+id, stderr)
	switch {
	case code >= 0:
		return nil, code
	case len(runs) == 0:
		fmt.Fprintf(stderr, "bulletctl: no run matches id %q\n", id)
		return nil, 1
	case len(runs) > 1:
		fmt.Fprintf(stderr, "bulletctl: id prefix %q is ambiguous (%d runs)\n", id, len(runs))
		return nil, 1
	}
	return runs[0], -1
}

// runLs lists archived runs, one row each, in the archive's deterministic
// catalog order.
func runLs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ls", flag.ContinueOnError)
	archDir := fs.String("archive", "", "experiment archive directory")
	filter := fs.String("filter", "", "selector, e.g. protocol=bulletprime,seed=1+2")
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	arch, code := openArchiveArg(*archDir, stderr)
	if code >= 0 {
		return code
	}
	f, err := lab.ParseFilter(*filter)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 2
	}
	metas, err := arch.List()
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-16s %-14s %-12s %6s %6s %-12s %10s %10s %9s\n",
		"id", "protocol", "network", "seed", "nodes", "scenario", "median_s", "worst_s", "finished")
	n := 0
	for _, m := range metas {
		if !f.Match(m) {
			continue
		}
		n++
		scen := m.ScenarioName
		if scen == "" {
			scen = "-"
		}
		fmt.Fprintf(stdout, "%-16s %-14s %-12s %6d %6d %-12s %10.1f %10.1f %9v\n",
			m.ID, m.Protocol, m.Network, m.Seed, m.Nodes, scen,
			m.Quantiles["median"], m.Quantiles["worst"], m.Finished)
	}
	fmt.Fprintf(stdout, "%d run(s)\n", n)
	return 0
}

// runShow prints one run's manifest and aggregates.
func runShow(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	archDir := fs.String("archive", "", "experiment archive directory")
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: bulletctl show -archive DIR RUN_ID")
		return 2
	}
	arch, code := openArchiveArg(*archDir, stderr)
	if code >= 0 {
		return code
	}
	r, code := selectOne(arch, fs.Arg(0), stderr)
	if code >= 0 {
		return code
	}
	m := r.Meta
	fmt.Fprintf(stdout, "run %s\n", m.ID)
	fmt.Fprintf(stdout, "  protocol:  %s\n", m.Protocol)
	fmt.Fprintf(stdout, "  network:   %s\n", m.Network)
	fmt.Fprintf(stdout, "  nodes:     %d\n", m.Nodes)
	fmt.Fprintf(stdout, "  file:      %.1f MB\n", m.FileBytes/1e6)
	fmt.Fprintf(stdout, "  seed:      %d\n", m.Seed)
	if m.ScenarioName != "" {
		fmt.Fprintf(stdout, "  scenario:  %s (digest %s)\n", m.ScenarioName, m.Scenario)
	}
	fmt.Fprintf(stdout, "  version:   %s\n", m.Version)
	fmt.Fprintf(stdout, "  created:   %s\n", m.CreatedAt)
	fmt.Fprintf(stdout, "  finished:  %v (elapsed %.1f s, control overhead %.2f%%)\n",
		m.Finished, m.Elapsed, 100*m.ControlOverhead)
	fmt.Fprintf(stdout, "  records:   %d completions, %d samples, %d annotations\n",
		len(r.CompletionTimes), len(r.Series), len(r.Annotations))
	if len(r.Series) > 0 {
		seriesSummary(stdout, r.Series)
	}
	names := make([]string, 0, len(m.Quantiles))
	for q := range m.Quantiles {
		names = append(names, q)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "  completion-time quantiles (s):\n")
	for _, q := range names {
		fmt.Fprintf(stdout, "    %-8s %10.2f\n", q, m.Quantiles[q])
	}
	fmt.Fprintf(stdout, "  config:    %s\n", string(m.Config))
	return 0
}

// seriesSummary renders a recorded time-series as a compact per-metric
// digest — first/last/min/max per column — so an archived run is
// inspectable without re-exporting it. Streaming and testbed columns
// appear only when the series populates them.
func seriesSummary(w io.Writer, series []lab.Sample) {
	type col struct {
		name string
		get  func(lab.Sample) float64
	}
	cols := []col{
		{"completed", func(s lab.Sample) float64 { return float64(s.Completed) }},
		{"goodput_bps", func(s lab.Sample) float64 { return s.GoodputBps }},
		{"control_bytes", func(s lab.Sample) float64 { return s.ControlBytes }},
		{"data_bytes", func(s lab.Sample) float64 { return s.DataBytes }},
		{"duplicate_blocks", func(s lab.Sample) float64 { return float64(s.DuplicateBlocks) }},
		{"useful_bytes", func(s lab.Sample) float64 { return s.UsefulBytes }},
	}
	optional := []col{
		{"stream_lag_p50", func(s lab.Sample) float64 { return s.StreamLagP50 }},
		{"stream_lag_max", func(s lab.Sample) float64 { return s.StreamLagMax }},
		{"rebuffering", func(s lab.Sample) float64 { return float64(s.Rebuffering) }},
		{"rebuffer_events", func(s lab.Sample) float64 { return float64(s.RebufferEvents) }},
		{"stream_goodput_bps", func(s lab.Sample) float64 { return s.StreamGoodputBps }},
		{"testbed_rtt_p50", func(s lab.Sample) float64 { return s.TestbedRTTp50 }},
		{"testbed_rtt_max", func(s lab.Sample) float64 { return s.TestbedRTTMax }},
		{"testbed_unacked", func(s lab.Sample) float64 { return s.TestbedUnackedBytes }},
		{"testbed_retransmits", func(s lab.Sample) float64 { return float64(s.TestbedRetransmits) }},
		{"testbed_inj_drops", func(s lab.Sample) float64 { return float64(s.TestbedInjectedDrops) }},
	}
	for _, c := range optional {
		for _, s := range series {
			if c.get(s) != 0 {
				cols = append(cols, c)
				break
			}
		}
	}
	fmt.Fprintf(w, "  series (%d samples, t=%.1f..%.1f s):\n",
		len(series), series[0].Time, series[len(series)-1].Time)
	fmt.Fprintf(w, "    %-20s %12s %12s %12s %12s\n", "metric", "first", "last", "min", "max")
	for _, c := range cols {
		first, last := c.get(series[0]), c.get(series[len(series)-1])
		lo, hi := first, first
		for _, s := range series[1:] {
			v := c.get(s)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Fprintf(w, "    %-20s %12.6g %12.6g %12.6g %12.6g\n", c.name, first, last, lo, hi)
	}
}

// runCompare diffs two selected run sets and prints the A/B report.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	archDir := fs.String("archive", "", "experiment archive directory")
	selA := fs.String("a", "", "selector for side A, e.g. protocol=bulletprime")
	selB := fs.String("b", "", "selector for side B, e.g. protocol=bittorrent")
	labelA := fs.String("label-a", "", "label for side A (default: the -a selector)")
	labelB := fs.String("label-b", "", "label for side B (default: the -b selector)")
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if *selA == "" || *selB == "" {
		fmt.Fprintln(stderr, "usage: bulletctl compare -archive DIR -a SELECTOR -b SELECTOR")
		return 2
	}
	arch, code := openArchiveArg(*archDir, stderr)
	if code >= 0 {
		return code
	}
	runsA, code := selectRuns(arch, *selA, stderr)
	if code >= 0 {
		return code
	}
	runsB, code := selectRuns(arch, *selB, stderr)
	if code >= 0 {
		return code
	}
	if len(runsA) == 0 || len(runsB) == 0 {
		fmt.Fprintf(stderr, "bulletctl: empty side (A matches %d run(s), B matches %d)\n",
			len(runsA), len(runsB))
		return 1
	}
	la, lb := *labelA, *labelB
	if la == "" {
		la = *selA
	}
	if lb == "" {
		lb = *selB
	}
	fmt.Fprint(stdout, lab.Compare(la, runsA, lb, runsB).Report())
	return 0
}

// runReport renders the whole (filtered) archive as a markdown report.
func runReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	archDir := fs.String("archive", "", "experiment archive directory")
	filter := fs.String("filter", "", "selector restricting the reported runs")
	outFile := fs.String("o", "", "write the report to this file instead of stdout")
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	arch, code := openArchiveArg(*archDir, stderr)
	if code >= 0 {
		return code
	}
	runs, code := selectRuns(arch, *filter, stderr)
	if code >= 0 {
		return code
	}
	report := lab.Report(runs)
	if *outFile != "" {
		if err := os.WriteFile(*outFile, []byte(report), 0o644); err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", *outFile)
		return 0
	}
	fmt.Fprint(stdout, report)
	return 0
}

// runGate checks the archive's per-group metric against a committed
// baseline: exit 0 within tolerance, 1 on regression (or missing group,
// or -write failure). -write captures the current archive as the new
// baseline instead of checking.
func runGate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	archDir := fs.String("archive", "", "experiment archive directory")
	baseFile := fs.String("baseline", "", "baseline JSON file (e.g. BENCH_BASELINE.json)")
	filter := fs.String("filter", "", "selector restricting the gated runs")
	metric := fs.String("metric", "median", "gated metric for -write: best, median, worst, mean, or pNN")
	tol := fs.Float64("tol", 0.15, "fractional tolerance for -write, e.g. 0.15 = +15%")
	write := fs.Bool("write", false, "capture the current archive as the new baseline and exit")
	stats := fs.Bool("stats", false, "with -write: also record per-run samples and arm the statistical gate")
	alpha := fs.Float64("alpha", 0.05, "with -write -stats: one-sided significance level for the rank test")
	minReps := fs.Int("minreps", 4, "with -write -stats: minimum per-side repetitions before the rank test applies")
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if *baseFile == "" {
		fmt.Fprintln(stderr, "usage: bulletctl gate -archive DIR -baseline FILE [-write]")
		return 2
	}
	arch, code := openArchiveArg(*archDir, stderr)
	if code >= 0 {
		return code
	}
	runs, code := selectRuns(arch, *filter, stderr)
	if code >= 0 {
		return code
	}

	if !*write && (*stats || explicitFlag(fs, "alpha") || explicitFlag(fs, "minreps")) {
		fmt.Fprintln(stderr, "bulletctl gate: -stats/-alpha/-minreps require -write")
		return 2
	}
	if *write {
		base, err := lab.BaselineFrom(runs, *metric, *tol)
		if err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		if len(base.Entries) == 0 {
			fmt.Fprintln(stderr, "bulletctl: refusing to write an empty baseline (no completed runs)")
			return 1
		}
		if *stats {
			cfg := lab.StatsConfig{Alpha: *alpha, MinReps: *minReps}
			if err := base.CaptureStats(runs, cfg); err != nil {
				fmt.Fprintln(stderr, "bulletctl:", err)
				return 1
			}
		}
		if err := base.Save(*baseFile); err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s: metric %s, tolerance %g, %d group(s)\n",
			*baseFile, base.Metric, base.Tolerance, len(base.Entries))
		if base.Stats != nil {
			fmt.Fprintf(stdout, "statistical gate armed: alpha %g, min reps %d, %d group(s) with samples\n",
				base.Stats.Alpha, base.Stats.MinReps, len(base.Samples))
		}
		return 0
	}

	base, err := lab.LoadBaseline(*baseFile)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	results, ok := base.Gate(runs)
	fmt.Fprint(stdout, lab.RenderGate(base.Metric, results, ok))
	if !ok {
		return 1
	}
	return 0
}

// explicitFlag reports whether the user set the named flag on the command
// line (as opposed to it holding its default).
func explicitFlag(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
