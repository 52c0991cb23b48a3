// Command bulletctl regenerates any figure of the paper's evaluation
// section from the reproduced systems, runs single experiments and parallel
// sweeps on the session API (with optional live progress), lints
// declarative scenario files, and manages the persistent experiment
// archive: listing and inspecting recorded runs, producing A/B comparison
// reports, and gating metrics against a committed baseline.
//
// Usage:
//
//	bulletctl -figure 4            # quick, scaled-down run
//	bulletctl -figure 5 -scale 1   # full paper scale (100 nodes, 100 MB)
//	bulletctl -list
//	bulletctl run -nodes 30 -filemb 10 -scenario rush.json -seed 1 -progress
//	bulletctl run -nodes 8 -filemb 0.25 -network testbed-udp -rate 25 -timeout 60
//	bulletctl crosscheck -nodes 8 -filemb 0.25 -rate 25 -archive bench/
//	bulletctl sweep -nodes 100 -seeds 4 -protocols bulletprime,bittorrent -parallel 8
//	bulletctl sweep -seeds 4 -protocols bulletprime,bittorrent -archive bench/
//	bulletctl scenario lint -nodes 30 rush.json
//	bulletctl ls -archive bench/
//	bulletctl show -archive bench/ 1a2b3c4d
//	bulletctl compare -archive bench/ -a protocol=bulletprime -b protocol=bittorrent
//	bulletctl report -archive bench/ -o REPORT.md
//	bulletctl sweep -seeds 4 -reps 5 -protocols bulletprime -archive bench/
//	bulletctl gate -archive bench/ -baseline BENCH_BASELINE.json
//	bulletctl gate -archive bench/ -baseline BENCH_BASELINE.json -write -stats -alpha 0.05
//	bulletctl farm coordinate -archive bench/ -addr 127.0.0.1:8844 -seeds 2 -reps 3
//	bulletctl farm work -coordinator http://127.0.0.1:8844 -archive bench/
//	bulletctl farm status -coordinator http://127.0.0.1:8844
//	bulletctl farm resume -archive bench/ -addr 127.0.0.1:8844 -seeds 2 -reps 3
//	go test -run '^$' -bench ... -benchmem ./... | bulletctl perfgate -baseline BENCH_PERF.json
//	bulletctl run -nodes 100 -engine sharded -network clustered -protocol scalefill -metrics-addr :9100
//	bulletctl metrics -archive bench/ -format prom 1a2b3c4d
//	bulletctl trace -nodes 30 -filemb 5 -format chrome -o run.trace.json
//
// Figure output is gnuplot-style text: a summary table (best/median/p90/
// worst download times per series) followed by the raw CDF points. Sweep
// output is one summary row per rig plus a pooled row per protocol×network.
// With -progress, run streams live samples (completions, goodput, scenario
// events) to stderr and sweep reports each cell as it finishes. With
// -archive, run and sweep record every completed cell into the archive,
// deduped by content hash. Every subcommand exits 0 on success, 1 on a
// runtime/validation failure (including a failed gate), and 2 on usage
// errors — unknown subcommands and bad flags never exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"bulletprime"
	"bulletprime/internal/harness"
)

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// subcommands maps every verb to its implementation; dispatch and the
// usage text share it.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"run":        runSingle,
	"crosscheck": runCrosscheck,
	"sweep":      runSweep,
	"scenario":   runScenario,
	"ls":         runLs,
	"show":       runShow,
	"compare":    runCompare,
	"farm":       runFarm,
	"report":     runReport,
	"gate":       runGate,
	"perfgate":   runPerfGate,
	"metrics":    runMetrics,
	"trace":      runTrace,
}

func usage(w io.Writer) {
	names := make([]string, 0, len(subcommands))
	for n := range subcommands {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "usage: bulletctl [-figure N | -list | -all DIR] [flags]\n")
	fmt.Fprintf(w, "       bulletctl <%s> [flags]\n", strings.Join(names, "|"))
	fmt.Fprintln(w, "run 'bulletctl <subcommand> -h' for subcommand flags")
}

// dispatch routes to a subcommand or the default figure mode and returns
// the process exit code: 0 ok, 1 runtime failure, 2 usage error. An
// unknown subcommand is a usage error, never a silent figure run.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, ok := subcommands[args[0]]
		if !ok {
			fmt.Fprintf(stderr, "bulletctl: unknown subcommand %q\n", args[0])
			usage(stderr)
			return 2
		}
		return cmd(args[1:], stdout, stderr)
	}
	return runFigure(args, stdout, stderr)
}

// parseFlags runs a ContinueOnError flag set and maps the outcome to an
// exit code: -1 parsed fine, 0 explicit -h, 2 bad flags.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) int {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	return -1
}

// parseOnlyFlags is parseFlags for a command that takes no positional
// arguments: one left over after the flags is a usage error.
func parseOnlyFlags(fs *flag.FlagSet, args []string, stderr io.Writer) int {
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bulletctl %s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return 2
	}
	return -1
}

// runFigure is the default mode: regenerate one paper figure (or all).
func runFigure(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bulletctl", flag.ContinueOnError)
	var (
		figure    = fs.Int("figure", 4, "paper figure to regenerate (see -list)")
		scale     = fs.Float64("scale", 0.25, "experiment scale: 1 = paper scale (100 nodes, 100 MB)")
		fileScale = fs.Float64("filescale", 0, "file-size scale override (defaults to -scale)")
		seed      = fs.Int64("seed", 42, "master random seed (topology + protocol)")
		list      = fs.Bool("list", false, "list available figures and exit")
		summary   = fs.Bool("summary", false, "print only the summary table, not raw CDF points")
		all       = fs.String("all", "", "regenerate every figure into this directory (figureNN.dat)")
	)
	fs.Usage = func() { usage(stderr); fs.PrintDefaults() }
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bulletctl: unexpected argument %q\n", fs.Arg(0))
		usage(stderr)
		return 2
	}

	if *list {
		for n, desc := range harness.Figures() {
			fmt.Fprintf(stdout, "  figure %2d: %s\n", n, desc)
		}
		return 0
	}

	sc := harness.Scale{Nodes: *scale, File: *scale}
	if *fileScale > 0 {
		sc.File = *fileScale
	}

	if *all != "" {
		if err := os.MkdirAll(*all, 0o755); err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		for n := range harness.Figures() {
			t0 := time.Now()
			out, err := harness.Render(n, sc, *seed)
			if err != nil {
				fmt.Fprintln(stderr, "bulletctl:", err)
				return 1
			}
			path := fmt.Sprintf("%s/figure%02d.dat", *all, n)
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				fmt.Fprintln(stderr, "bulletctl:", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s (%.1fs)\n", path, time.Since(t0).Seconds())
		}
		return 0
	}

	start := time.Now()
	out, err := harness.Render(*figure, sc, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	if *summary {
		// The summary table ends at the first blank-line + '#' block.
		for _, line := range strings.Split(out, "\n") {
			if len(line) > 0 && line[0] == '#' {
				break
			}
			fmt.Fprintln(stdout, line)
		}
	} else {
		fmt.Fprint(stdout, out)
	}
	fmt.Fprintf(stderr, "[figure %d, scale %.2f, %.1fs wall]\n", *figure, *scale, time.Since(start).Seconds())
	return 0
}

// loadScenario loads a -scenario file; "" means no scenario.
func loadScenario(path string, stderr io.Writer) (*bulletprime.Scenario, bool) {
	if path == "" {
		return nil, true
	}
	sc, err := bulletprime.LoadScenario(path)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return nil, false
	}
	return sc, true
}

// openArchiveFlag opens (creating if needed) an -archive directory for a
// recording subcommand; "" means archiving is off. version, when
// non-empty, overrides the code version stamped onto new records — the
// binary's VCS revision is only available when built with stamping (plain
// `go run` records "dev"), so commit-vs-commit workflows pass it
// explicitly.
func openArchiveFlag(dir, version string, stderr io.Writer) (*bulletprime.Archive, bool) {
	if dir == "" {
		return nil, true
	}
	arch, err := bulletprime.OpenArchive(dir)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return nil, false
	}
	if version != "" {
		arch.SetVersion(version)
	}
	return arch, true
}

// interruptContext returns a context cancelled by the first SIGINT, so a
// long experiment stops at the next event boundary and still reports its
// partial results.
func interruptContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// runSingle implements the run subcommand on the session API: one
// experiment, optionally under a declarative scenario, with a per-node
// completion summary, live -progress streaming, optional archival, and
// ctrl-C returning partial results.
func runSingle(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	run := runFlags{sizeFlags: sizeFlags{nodes: 30, fileMB: 10, deadline: 3600}}
	run.register(fs, helpText{
		"protocol": "protocol (any registered; see bulletprime.Protocols)",
		"engine":   "execution engine: sequential or sharded (sharded needs a clustered network and a sharded protocol, e.g. scalefill)",
		"shards":   "shard count for -engine sharded (0 = default; part of the experiment's identity)",
	})
	var (
		scenFile = fs.String("scenario", "", "JSON scenario file to apply")
		dynamic  = fs.Bool("dynamic", false, "enable the synthetic bandwidth-change process")
		progress = fs.Bool("progress", false, "stream live samples to stderr while running")
		every    = fs.Float64("every", 5, "sample cadence in virtual seconds (progress lines, live metrics, archived series)")
		metrics  = fs.String("metrics-addr", "", "serve the run's live metrics on this address (/metrics Prometheus, /metrics.json; :0 picks a port)")
		archDir  = fs.String("archive", "", "record the completed run into this experiment archive")
		version  = fs.String("version", "", "code version stamped onto archived runs (default: binary VCS revision, or dev)")
		timeout  = fs.Float64("timeout", 0, "wall-clock bound in seconds; on expiry the run stops, prints partial results, and exits 1")
		stream   = fs.Bool("stream", false, "live-streaming run: the source paces emission at -bitrate for -duration and viewers are tracked for lag/rebuffering")
		bitrate  = fs.Float64("bitrate", 2, "stream: source bitrate in Mbps")
		duration = fs.Float64("duration", 60, "stream: emission duration in virtual seconds")
		playout  = fs.Float64("playout", 0, "stream: viewer playout buffer depth in seconds of content (0 = default 4)")
		rate     = fs.Float64("rate", 0, "testbed-udp: virtual seconds per wall second (0 = real time)")
		rto      = fs.Float64("rto", 0, "testbed-udp: wall retransmission timeout in seconds (0 = default 0.05)")
		drop     = fs.Float64("drop", 0, "testbed-udp: injected uniform packet-loss probability")
		dropseed = fs.Int64("dropseed", 0, "testbed-udp: loss-injector seed")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	cfg, ok := run.config(stderr)
	if !ok {
		return 2
	}
	if cfg.Network == bulletprime.NetworkTestbedUDP {
		cfg.Testbed = &bulletprime.TestbedOptions{Rate: *rate, RTO: *rto, DropProb: *drop, DropSeed: *dropseed}
	} else if *rate != 0 || *rto != 0 || *drop != 0 || *dropseed != 0 {
		fmt.Fprintln(stderr, "bulletctl run: -rate/-rto/-drop/-dropseed require -network testbed-udp")
		return 2
	}
	// The streaming flags are usage-checked here rather than left to config
	// validation: a silently ignored -bitrate would run a different
	// experiment than the one asked for.
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if !*stream && (explicit["bitrate"] || explicit["duration"] || explicit["playout"]) {
		fmt.Fprintln(stderr, "bulletctl run: -bitrate/-duration/-playout require -stream")
		return 2
	}
	if *stream && explicit["filemb"] {
		fmt.Fprintln(stderr, "bulletctl run: -stream derives the content size from -bitrate and -duration; drop -filemb")
		return 2
	}
	if *stream {
		cfg.FileBytes = 0
		cfg.Stream = &bulletprime.StreamOptions{
			BitrateBps:   *bitrate * 1e6 / 8,
			Duration:     *duration,
			PlayoutDepth: *playout,
		}
	}
	cfg.DynamicBandwidth = *dynamic
	if cfg.Scenario, ok = loadScenario(*scenFile, stderr); !ok {
		return 1
	}
	if cfg.Archive, ok = openArchiveFlag(*archDir, *version, stderr); !ok {
		return 1
	}
	// The CLI prints aggregates and streams -progress through an observer,
	// never Result.Series — but an archived run records a series at the
	// -every cadence so show/metrics can render it later.
	cfg.SampleEvery = -1
	if cfg.Archive != nil {
		cfg.SampleEvery = *every
	}

	start := time.Now()
	exp, err := bulletprime.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	streamed := make(chan struct{})
	if *progress {
		obs, err := exp.Subscribe(bulletprime.ObserverConfig{Every: *every})
		if err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		go func() {
			defer close(streamed)
			for s := range obs.Samples() {
				// The progress line follows the workload kind: a live stream
				// is judged by viewer lag and rebuffering, not completions.
				if *stream {
					fmt.Fprintf(stderr, "t=%7.1fs  lag p50 %6.2fs max %6.2fs  %2d rebuffering (%d events)  %8.2f Mbps viewer goodput\n",
						s.Time, s.StreamLagP50, s.StreamLagMax,
						s.Rebuffering, s.RebufferEvents, s.StreamGoodputBps*8/1e6)
				} else {
					fmt.Fprintf(stderr, "t=%7.1fs  %3d/%d done  %8.2f Mbps goodput  %5.2f%% control\n",
						s.Time, s.Completed, s.Receivers, s.GoodputBps*8/1e6,
						100*s.ControlBytes/max1(s.ControlBytes+s.DataBytes))
				}
				for _, a := range s.Annotations {
					fmt.Fprintf(stderr, "           event @%.1fs: %s\n", a.At, a.Text)
				}
			}
		}()
	} else {
		close(streamed)
	}
	prof, ok := startProfiles(*cpuProf, *memProf, stderr)
	if !ok {
		return 1
	}
	ctx, stop := interruptContext()
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(*timeout*float64(time.Second)))
		defer cancel()
	}
	var msrv *metricsServer
	if *metrics != "" {
		labels := map[string]string{
			"protocol": run.protocol,
			"network":  run.network,
			"seed":     fmt.Sprintf("%d", run.seed),
		}
		msrv, err = serveMetrics(*metrics, exp, labels, *every, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
	}
	res, err := exp.Run(ctx)
	if msrv != nil {
		// The run is over (every observer stream is closed), so the last
		// stored sample is final; stop accepting scrapes.
		msrv.close()
	}
	profOK := prof.stop(stderr)
	if err != nil && res == nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	if !profOK {
		return 1
	}
	<-streamed
	if rep := res.Stream; rep != nil {
		fmt.Fprintf(stdout, "%-14s %-12s %6s %9s %9s %9s %10s %9s %9s %11s\n",
			"protocol", "network", "seed", "lag_p50_s", "lag_p90_s", "lag_max_s",
			"jitter_p50", "rebuffers", "stall_s", "goodput_mbps")
		fmt.Fprintf(stdout, "%-14s %-12s %6d %9.2f %9.2f %9.2f %10.3f %9d %9.1f %11.2f\n",
			run.protocol, run.network, run.seed, rep.LagP50, rep.LagP90, rep.LagMax,
			rep.JitterP50, rep.Rebuffers, rep.StallS, rep.GoodputBps*8/1e6)
		fmt.Fprintf(stdout, "target %.2f Mbps for %.0fs; %d/%d viewers live, startup p50 %.2fs\n",
			rep.TargetBps*8/1e6, rep.Duration, rep.Live, rep.Live+rep.Dead, rep.StartupP50)
	} else {
		fmt.Fprintf(stdout, "%-14s %-12s %6s %10s %10s %10s %9s %11s\n",
			"protocol", "network", "seed", "best_s", "median_s", "worst_s", "finished", "completions")
		fmt.Fprintf(stdout, "%-14s %-12s %6d %10.1f %10.1f %10.1f %9v %11d\n",
			run.protocol, run.network, run.seed, res.Best(), res.Median(), res.Worst(),
			res.Finished, len(res.CompletionTimes))
	}
	if res.Cancelled {
		fmt.Fprintln(stdout, "run cancelled; results above are partial")
	}
	if err != nil {
		// The run completed but archiving it failed.
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	if res.Cancelled && *timeout > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "bulletctl: run exceeded -timeout %vs\n", *timeout)
		return 1
	}
	if id := exp.RunID(); id != "" {
		fmt.Fprintf(stderr, "archived as %s in %s\n", id, *archDir)
	}
	fmt.Fprintf(stderr, "[run, %.1fs wall]\n", time.Since(start).Seconds())
	return 0
}

// runCrosscheck implements the crosscheck subcommand: the sim-vs-testbed
// comparison harness. One configuration runs twice — once on the emulated
// clean ModelNet network and once over real loopback UDP sockets — and the
// two completion-time CDFs are diffed into the archive layer's quantile
// comparison report. With -archive, both runs are recorded (each under its
// own content address) before the report prints.
func runCrosscheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crosscheck", flag.ContinueOnError)
	run := runFlags{sizeFlags: sizeFlags{nodes: 8, fileMB: 0.25, deadline: 1800}}
	// Both networks are the command's to pick, and the testbed has one engine.
	run.register(fs, helpText{"seed": "master random seed (shared by both runs)", "network": "", "engine": ""})
	var (
		rate     = fs.Float64("rate", 25, "testbed clock rate: virtual seconds per wall second")
		drop     = fs.Float64("drop", 0, "testbed injected uniform packet-loss probability")
		dropseed = fs.Int64("dropseed", 0, "testbed loss-injector seed")
		archDir  = fs.String("archive", "", "record both runs into this experiment archive")
		version  = fs.String("version", "", "code version stamped onto archived runs")
	)
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	base, ok := run.config(stderr)
	if !ok {
		return 2
	}
	base.SampleEvery = -1
	if base.Archive, ok = openArchiveFlag(*archDir, *version, stderr); !ok {
		return 1
	}
	simCfg := base
	// The emulated twin of the testbed preset's neutral overlay topology.
	simCfg.Network = bulletprime.NetworkModelNetClean
	tbCfg := base
	tbCfg.Network = bulletprime.NetworkTestbedUDP
	tbCfg.Testbed = &bulletprime.TestbedOptions{Rate: *rate, DropProb: *drop, DropSeed: *dropseed}

	// Validate both configurations before spending wall-clock time on
	// either run.
	simExp, err := bulletprime.New(simCfg)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl: emulated:", err)
		return 1
	}
	tbExp, err := bulletprime.New(tbCfg)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl: testbed-udp:", err)
		return 1
	}

	start := time.Now()
	ctx, stop := interruptContext()
	defer stop()
	runOne := func(label string, exp *bulletprime.Experiment) (*bulletprime.Result, string, bool) {
		res, err := exp.Run(ctx)
		if err != nil {
			// Setup failure (empty result) or a failed archive record; either
			// way the comparison would be meaningless.
			fmt.Fprintf(stderr, "bulletctl: %s: %v\n", label, err)
			return nil, "", false
		}
		if res.Cancelled {
			fmt.Fprintf(stderr, "bulletctl: %s run cancelled\n", label)
			return nil, "", false
		}
		fmt.Fprintf(stderr, "[%s done: %d completions, median %.1fs virtual]\n",
			label, len(res.CompletionTimes), res.Median())
		return res, exp.RunID(), true
	}
	simRes, simID, ok := runOne("emulated", simExp)
	if !ok {
		return 1
	}
	tbRes, tbID, ok := runOne("testbed-udp", tbExp)
	if !ok {
		return 1
	}

	mkRun := func(cfg bulletprime.RunConfig, res *bulletprime.Result) *bulletprime.ArchivedRun {
		r := &bulletprime.ArchivedRun{CompletionTimes: res.CompletionTimes}
		r.Meta.Seed = cfg.Seed
		r.Meta.Protocol = string(cfg.Protocol)
		r.Meta.Network = string(cfg.Network)
		return r
	}
	cmp := bulletprime.CompareArchived(
		"emulated", []*bulletprime.ArchivedRun{mkRun(simCfg, simRes)},
		"testbed-udp", []*bulletprime.ArchivedRun{mkRun(tbCfg, tbRes)},
	)
	fmt.Fprint(stdout, cmp.Report())
	if simID != "" || tbID != "" {
		fmt.Fprintf(stderr, "archived as %s (emulated) and %s (testbed) in %s\n", simID, tbID, *archDir)
	}
	fmt.Fprintf(stderr, "[crosscheck, %.1fs wall]\n", time.Since(start).Seconds())
	return 0
}

func max1(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return x
}

// runScenario implements the scenario subcommand; its only verb is lint,
// which validates a JSON scenario file and prints the compiled timeline.
// It returns the process exit code: 0 ok, 1 validation failure, 2 usage.
func runScenario(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || args[0] != "lint" {
		fmt.Fprintln(stderr, "usage: bulletctl scenario lint [-nodes N] file.json")
		return 2
	}
	fs := flag.NewFlagSet("scenario lint", flag.ContinueOnError)
	nodes := fs.Int("nodes", 30, "overlay size to validate against")
	if code := parseFlags(fs, args[1:], stderr); code >= 0 {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: bulletctl scenario lint [-nodes N] file.json")
		return 2
	}
	sc, err := bulletprime.LoadScenario(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	prog, err := sc.Compile(*nodes)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	fmt.Fprint(stdout, prog.Timeline())
	fmt.Fprintf(stdout, "ok: %s\n", fs.Arg(0))
	return 0
}

// runSweep implements the sweep subcommand: a seeds × protocols × networks
// cross product fanned across a worker pool of sessions. With -progress,
// each cell is reported on stderr the moment it completes; with -archive,
// each completed cell is recorded as it finishes.
func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	geom := sweepFlags{sizeFlags: sizeFlags{nodes: 100, fileMB: 10, deadline: 3600}, seeds: 4}
	geom.register(fs, helpText{
		"reps":   "repetitions per cell with derived seeds (feeds the statistical gate)",
		"engine": "execution engine for every cell: sequential or sharded",
	})
	var (
		dynamic  = fs.Bool("dynamic", false, "enable the synthetic bandwidth-change process")
		scenFile = fs.String("scenario", "", "JSON scenario file applied to every cell")
		parallel = fs.Int("parallel", 0, "worker-pool size (0 = one per CPU)")
		progress = fs.Bool("progress", false, "report each cell on stderr as it completes")
		archDir  = fs.String("archive", "", "record every completed cell into this experiment archive")
		version  = fs.String("version", "", "code version stamped onto archived runs (default: binary VCS revision, or dev)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile of the sweep to this file")
	)
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	cfg, ok := geom.config(stderr)
	if !ok {
		return 2
	}
	cfg.Base.DynamicBandwidth = *dynamic
	cfg.Base.Parallel = *parallel
	if cfg.Base.Scenario, ok = loadScenario(*scenFile, stderr); !ok {
		return 1
	}
	if cfg.Base.Archive, ok = openArchiveFlag(*archDir, *version, stderr); !ok {
		return 1
	}

	prof, ok := startProfiles(*cpuProf, *memProf, stderr)
	if !ok {
		return 1
	}
	start := time.Now()
	// One session per cell either way, and the summary tables read aggregates
	// only, so no cell keeps a time-series. -progress reports each cell the
	// moment it finishes and lets SIGINT stop the sweep with partial results.
	ctx := context.Background()
	if *progress {
		var stop context.CancelFunc
		ctx, stop = interruptContext()
		defer stop()
	}
	cfg.Base.SampleEvery = -1
	ch, err := bulletprime.SweepStream(ctx, cfg, nil)
	if err != nil {
		prof.stop(stderr)
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	var runs []bulletprime.SweepRun
	cancelled, archErrs := 0, 0
	for r := range ch {
		runs = append(runs, r)
		if r.Err != nil {
			archErrs++
			fmt.Fprintln(stderr, "bulletctl:", r.Err)
		}
		if r.Result.Cancelled {
			cancelled++
		} else if *progress {
			fmt.Fprintf(stderr, "[%3d done] %-14s %-12s seed %-3d median %8.1fs worst %8.1fs\n",
				len(runs), r.Protocol, r.Network, r.Seed, r.Result.Median(), r.Result.Worst())
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Index < runs[j].Index })

	if !prof.stop(stderr) {
		return 1
	}
	fmt.Fprintf(stdout, "%-14s %-12s %6s %10s %10s %10s %9s\n",
		"protocol", "network", "seed", "best_s", "median_s", "worst_s", "finished")
	type key struct {
		p bulletprime.Protocol
		n bulletprime.NetworkPreset
	}
	pooled := make(map[key][]float64)
	var order []key
	for _, r := range runs {
		if r.Result.Cancelled {
			// Stopped mid-flight or never started: no completion statistics
			// to report or pool.
			fmt.Fprintf(stdout, "%-14s %-12s %6d %43s\n", r.Protocol, r.Network, r.Seed, "(cancelled)")
			continue
		}
		fmt.Fprintf(stdout, "%-14s %-12s %6d %10.1f %10.1f %10.1f %9v\n",
			r.Protocol, r.Network, r.Seed,
			r.Result.Best(), r.Result.Median(), r.Result.Worst(), r.Result.Finished)
		k := key{r.Protocol, r.Network}
		if _, ok := pooled[k]; !ok {
			order = append(order, k)
		}
		pooled[k] = append(pooled[k], r.Result.Median())
	}
	if cancelled > 0 {
		fmt.Fprintf(stdout, "%d of %d cells cancelled; pooled statistics cover completed cells only\n",
			cancelled, len(runs))
	}
	fmt.Fprintln(stdout)
	for _, k := range order {
		meds := pooled[k]
		sort.Float64s(meds)
		fmt.Fprintf(stdout, "%-14s %-12s pooled median-of-medians over %d seeds: %.1f s\n",
			k.p, k.n, len(meds), meds[len(meds)/2])
	}
	fmt.Fprintf(stderr, "[%d runs, parallel=%d, %.1fs wall]\n",
		len(runs), *parallel, time.Since(start).Seconds())
	if archErrs > 0 {
		fmt.Fprintf(stderr, "bulletctl: %d cell(s) failed to archive\n", archErrs)
		return 1
	}
	return 0
}
