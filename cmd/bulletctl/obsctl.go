package main

// The observability subcommands: metrics re-exports an archived run as
// Prometheus text-format or JSON, trace runs one traced experiment and
// exports its structured event spans as Chrome trace_event JSON or JSONL,
// and `run -metrics-addr` serves a live run's latest sample over HTTP for
// scraping. All rendering goes through internal/obs and internal/lab, so
// archived, live, and traced views of the same run agree. See DESIGN.md §12.

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"bulletprime"
	"bulletprime/internal/lab"
	"bulletprime/internal/obs"
)

// runMetrics implements the metrics subcommand: render one archived run as
// Prometheus text exposition format (the default) or JSON. Equal runs
// render byte-equal output, so the exposition is diffable.
func runMetrics(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	archDir := fs.String("archive", "", "experiment archive directory")
	format := fs.String("format", "prom", "output format: prom (Prometheus text exposition 0.0.4) or json")
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: bulletctl metrics -archive DIR [-format prom|json] RUN_ID")
		return 2
	}
	if *format != "prom" && *format != "json" {
		fmt.Fprintf(stderr, "bulletctl metrics: unknown format %q (prom or json)\n", *format)
		return 2
	}
	arch, code := openArchiveArg(*archDir, stderr)
	if code >= 0 {
		return code
	}
	run, code := selectOne(arch, fs.Arg(0), stderr)
	if code >= 0 {
		return code
	}
	reg := lab.Metrics(run)
	var err error
	if *format == "json" {
		err = reg.RenderJSON(stdout)
	} else {
		err = reg.RenderPrometheus(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	return 0
}

// runTrace implements the trace subcommand: run one experiment with
// structured event tracing enabled and export the recorded spans. The
// export goes to -o (or stdout), the per-kind span counts to stderr, so
// `bulletctl trace ... > run.trace` always yields a loadable file.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	run := runFlags{sizeFlags: sizeFlags{nodes: 30, fileMB: 10, deadline: 3600}}
	run.register(fs, nil)
	var (
		capac   = fs.Int("capacity", 0, "span ring bound (0 = default 16384; oldest spans evicted beyond it)")
		format  = fs.String("format", "chrome", "export format: chrome (trace_event JSON for chrome://tracing) or jsonl")
		outFile = fs.String("o", "", "write the trace to this file instead of stdout")
	)
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if *format != "chrome" && *format != "jsonl" {
		fmt.Fprintf(stderr, "bulletctl trace: unknown format %q (chrome or jsonl)\n", *format)
		return 2
	}
	cfg, ok := run.config(stderr)
	if !ok {
		return 2
	}
	cfg.Trace = &bulletprime.TraceOptions{Capacity: *capac}
	cfg.SampleEvery = -1 // tracing needs no time-series

	start := time.Now()
	exp, err := bulletprime.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	ctx, stop := interruptContext()
	defer stop()
	res, err := exp.Run(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	rep := res.Trace
	if rep == nil {
		fmt.Fprintln(stderr, "bulletctl: traced run returned no trace report")
		return 1
	}

	spans := rep.Spans
	out := stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		defer f.Close()
		out = f
	}
	if *format == "jsonl" {
		err = obs.WriteJSONL(out, spans)
	} else {
		err = obs.WriteChromeTrace(out, spans)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	if *outFile != "" {
		fmt.Fprintf(stderr, "wrote %s (%d spans)\n", *outFile, len(spans))
	}
	obs.FormatCounts(stderr, rep.Counts)
	if rep.Dropped > 0 {
		fmt.Fprintf(stderr, "%d span(s) evicted from the ring (raise -capacity to keep more)\n", rep.Dropped)
	}
	if res.Cancelled {
		fmt.Fprintln(stderr, "bulletctl: run cancelled; trace above is partial")
		return 1
	}
	fmt.Fprintf(stderr, "[trace, %.1fs wall]\n", time.Since(start).Seconds())
	return 0
}

// metricsServer is the live scrape endpoint `run -metrics-addr` starts: an
// observer drains into an atomic latest-sample slot, and each HTTP request
// renders that slot on demand — scraping never touches, let alone stalls,
// the simulation.
type metricsServer struct {
	srv     *http.Server
	ln      net.Listener
	drained chan struct{}
}

// serveMetrics subscribes a live observer on exp and serves its most recent
// sample at /metrics (Prometheus text format) and /metrics.json. Must be
// called before the run starts; addr may use port 0 to pick a free port —
// the bound address is reported on stderr.
func serveMetrics(addr string, exp *bulletprime.Experiment, labels map[string]string, stderr io.Writer) (*metricsServer, error) {
	o, err := exp.Subscribe()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	var latest atomic.Pointer[bulletprime.Sample]
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for s := range o.Samples() {
			s := s
			latest.Store(&s)
		}
	}()
	registry := func() *obs.Registry {
		r := &obs.Registry{}
		if s := latest.Load(); s != nil {
			lab.SampleMetrics(r, labels, *s)
		}
		return r
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		registry().RenderPrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		registry().RenderJSON(w)
	})
	m := &metricsServer{srv: &http.Server{Handler: mux}, ln: ln, drained: drained}
	go m.srv.Serve(ln)
	fmt.Fprintf(stderr, "serving live metrics on http://%s/metrics\n", ln.Addr())
	return m, nil
}

// addr returns the server's bound address (useful with ":0").
func (m *metricsServer) addr() string { return m.ln.Addr().String() }

// close stops the HTTP server and waits for the observer drain to finish;
// call it after the run ends.
func (m *metricsServer) close() {
	<-m.drained
	m.srv.Close()
}
