package main

// The farm subcommand: distributed coordinator/worker sweeps over a
// shared experiment archive. `farm coordinate` expands a sweep spec into
// cells and serves them over the lab claim protocol; any number of
// `farm work` processes (same machine or not) claim cells, execute them
// with the ordinary session runner, and record into the shared archive.
// A cell is done when its record exists: a worker that claims a cell whose
// archive id is already recorded settles it without running it, so
// killing a worker mid-cell and re-running the farm over the same archive
// converges on exactly one archive record per cell. The coordinator holds
// only leases. `farm status` reports progress from a live coordinator or
// offline from the archive alone. See DESIGN.md §13.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"bulletprime"
	"bulletprime/internal/lab"
)

func runFarm(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: bulletctl farm <coordinate|work|status> [flags]")
		return 2
	}
	switch args[0] {
	case "coordinate":
		return farmCoordinate(args[1:], stdout, stderr)
	case "work":
		return farmWork(args[1:], stdout, stderr)
	case "status":
		return farmStatus(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "bulletctl farm: unknown verb %q\n", args[0])
	fmt.Fprintln(stderr, "usage: bulletctl farm <coordinate|work|status> [flags]")
	return 2
}

// farmGeometry registers the sweep-geometry group with the farm's defaults
// and wording; a farm's cells run on the sequential engine.
func farmGeometry(fs *flag.FlagSet) *sweepFlags {
	geom := &sweepFlags{sizeFlags: sizeFlags{nodes: 8, fileMB: 1, deadline: 3600}, seeds: 2}
	geom.register(fs, helpText{
		"seeds":    "number of base seeds (1..n)",
		"deadline": "virtual-time deadline in seconds for every cell",
		"engine":   "",
	})
	return geom
}

// farmCoordinate serves the claim protocol until every cell is settled. It
// never reads the archive: workers skip the cells already recorded there.
func farmCoordinate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("farm coordinate", flag.ContinueOnError)
	geom := farmGeometry(fs)
	var (
		addr   = fs.String("addr", "127.0.0.1:0", "address to serve the claim protocol on")
		ttl    = fs.Float64("ttl", 15, "lease TTL in seconds; a dead worker's cell is reissued after this")
		wall   = fs.Float64("wall", 0, "wall-clock bound in seconds; on expiry the farm stops and exits 1 (0 = none)")
		linger = fs.Float64("linger", 1.5, "seconds to keep serving after completion so workers see the done verdict")
	)
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	farm, err := lab.NewFarm(geom.farmSpec(), time.Duration(*ttl*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	fmt.Fprintf(stderr, "[farm] %d cell(s)\n", farm.Status().Total)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	// The resolved address line is machine-readable on purpose: with
	// -addr :0 it is how scripts learn the port.
	fmt.Fprintf(stderr, "[farm] coordinating on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: &lab.FarmServer{Farm: farm}}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := interruptContext()
	defer stop()
	start := time.Now()
	var deadline <-chan time.Time
	if *wall > 0 {
		t := time.NewTimer(time.Duration(*wall * float64(time.Second)))
		defer t.Stop()
		deadline = t.C
	}
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	last := lab.FarmStatus{}
	code := 0
poll:
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(stderr, "[farm] interrupted")
			code = 1
			break poll
		case <-deadline:
			fmt.Fprintf(stderr, "bulletctl: farm exceeded -wall %vs\n", *wall)
			code = 1
			break poll
		case err := <-serveErr:
			fmt.Fprintln(stderr, "bulletctl:", err)
			code = 1
			break poll
		case <-tick.C:
			st := farm.Status()
			if st.Done != last.Done || st.Failed != last.Failed || st.Reissues != last.Reissues {
				fmt.Fprintf(stderr, "[farm] %d/%d done, %d leased, %d pending, %d failed (%d reissues)\n",
					st.Done, st.Total, st.Leased, st.Pending, st.Failed, st.Reissues)
			}
			last = st
			if st.Complete() {
				break poll
			}
		}
	}
	// Let workers whose claim is in flight observe the done verdict
	// before the listener goes away.
	if code == 0 && *linger > 0 {
		time.Sleep(time.Duration(*linger * float64(time.Second)))
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shCtx)

	st := farm.Status()
	renderFarmStatus(stdout, st)
	ids := farm.RunIDs()
	distinct := 0
	prev := ""
	for _, id := range ids {
		if id != prev {
			distinct++
			prev = id
		}
	}
	fmt.Fprintf(stdout, "distinct archived runs: %d\n", distinct)
	fmt.Fprintf(stderr, "[farm coordinate, %.1fs wall]\n", time.Since(start).Seconds())
	if code != 0 {
		return code
	}
	if st.Failed > 0 {
		return 1
	}
	return 0
}

// farmWork claims cells from a coordinator and executes them until the
// farm is done. Every run records into the shared archive before the
// lease settles, so the worker can die at any instant without losing or
// duplicating work.
func farmWork(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("farm work", flag.ContinueOnError)
	var (
		coord   = fs.String("coordinator", "", "coordinator URL, e.g. http://127.0.0.1:8844 (required)")
		worker  = fs.String("worker", "", "worker name in claims and status (default: host-pid)")
		archDir = fs.String("archive", "", "shared experiment archive directory (required)")
		version = fs.String("version", "", "code version stamped onto archived runs")
	)
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if *coord == "" || *archDir == "" {
		fmt.Fprintln(stderr, "usage: bulletctl farm work -coordinator URL -archive DIR [flags]")
		return 2
	}
	name := *worker
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	arch, ok := openArchiveFlag(*archDir, *version, stderr)
	if !ok {
		return 1
	}
	cl := &lab.FarmClient{Base: *coord, Worker: name}
	spec, err := cl.Spec()
	if err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}

	ctx, stop := interruptContext()
	defer stop()
	done := 0
	consecErrs := 0
	for {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "[%s] interrupted after %d cell(s)\n", name, done)
			return 1
		}
		cell, lease, ttl, verdict, err := cl.Claim()
		if err != nil {
			// A transient coordinator hiccup (or its post-completion
			// shutdown racing our claim) is not worth dying over
			// immediately; a coordinator that stays gone is.
			consecErrs++
			if consecErrs > 40 {
				fmt.Fprintln(stderr, "bulletctl:", err)
				return 1
			}
			time.Sleep(250 * time.Millisecond)
			continue
		}
		consecErrs = 0
		switch verdict {
		case lab.ClaimDone:
			fmt.Fprintf(stderr, "[%s] farm complete; ran %d cell(s)\n", name, done)
			return 0
		case lab.ClaimWait:
			time.Sleep(300 * time.Millisecond)
			continue
		}
		fmt.Fprintf(stderr, "[%s] cell %d (%s/%s/%d rep %d) claimed\n",
			name, cell.Index, cell.Protocol, cell.Network, cell.Seed, cell.Rep)
		if runFarmCell(ctx, cl, arch, spec, cell, lease, ttl, name, stderr) {
			done++
		}
	}
}

// cellConfig is the run a farm cell is: the spec's geometry at the cell's
// protocol, network and seed, unsampled, recorded into arch. A worker runs
// it and `farm status` reads its archive id, so the two agree on which
// cells are done.
func cellConfig(spec lab.FarmSpec, cell lab.Cell, arch *bulletprime.Archive) bulletprime.RunConfig {
	return bulletprime.RunConfig{
		Protocol:    bulletprime.Protocol(cell.Protocol),
		Nodes:       spec.Nodes,
		FileBytes:   spec.FileMB * 1e6,
		Network:     bulletprime.NetworkPreset(cell.Network),
		Seed:        cell.Seed,
		Deadline:    spec.Deadline,
		SampleEvery: -1,
		Archive:     arch,
	}
}

// runFarmCell settles one leased cell: a cell whose record the archive
// already holds completes under that id without running; any other runs,
// is archived, and completes. Returns true when the cell ran and completed
// under this lease.
func runFarmCell(ctx context.Context, cl *lab.FarmClient, arch *bulletprime.Archive,
	spec lab.FarmSpec, cell lab.Cell, lease string, ttl time.Duration, name string, stderr io.Writer) bool {
	tag := fmt.Sprintf("[%s] cell %d", name, cell.Index)
	exp, err := bulletprime.New(cellConfig(spec, cell, arch))
	if err != nil {
		// The runner rejects this configuration deterministically; every
		// reissue would too, so settle it as failed rather than letting
		// it bounce between workers until someone notices.
		fmt.Fprintf(stderr, "%s (%s/%s/%d) rejected: %v\n", tag, cell.Protocol, cell.Network, cell.Seed, err)
		_, _ = cl.Fail(lease, err.Error())
		return false
	}
	// Has is the check Put dedupes on: running a recorded cell would write
	// nothing, so it settles under the id it already has.
	id := exp.RunID()
	ran := !arch.Has(id)
	var res *bulletprime.Result
	if ran {
		if res = runLeased(ctx, cl, exp, lease, ttl, tag, stderr); res == nil {
			return false
		}
	}
	ok, err := cl.Complete(lease, id)
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "%s: completing lease: %v\n", tag, err)
	case !ok:
		// Settled late: the lease expired and the cell was reissued. The
		// record stands, and the reissue finds it, so nothing is lost and
		// nothing is duplicated.
		fmt.Fprintf(stderr, "%s archived as %s but the lease had expired\n", tag, id)
	case !ran:
		fmt.Fprintf(stderr, "%s (%s/%s/%d rep %d) already archived as %s\n",
			tag, cell.Protocol, cell.Network, cell.Seed, cell.Rep, id)
	default:
		fmt.Fprintf(stderr, "%s (%s/%s/%d rep %d) done: %s, median %.1fs\n",
			tag, cell.Protocol, cell.Network, cell.Seed, cell.Rep, id, res.Median())
	}
	return err == nil && ok && ran
}

// runLeased runs and archives a leased cell's session with a background
// renewer keeping the lease alive for the duration. It returns nil, with
// the reason on stderr, when the run produced no record to settle.
func runLeased(ctx context.Context, cl *lab.FarmClient, exp *bulletprime.Experiment,
	lease string, ttl time.Duration, tag string, stderr io.Writer) *bulletprime.Result {
	// Losing the lease (coordinator restarted, TTL missed under load)
	// cancels the run — the cell belongs to someone else now.
	runCtx, cancel := context.WithCancel(ctx)
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		t := time.NewTicker(max(ttl/3, 50*time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				if ok, err := cl.Renew(lease); err == nil && !ok {
					cancel()
					return
				}
			}
		}
	}()
	res, err := exp.Run(runCtx)
	cancel()
	<-renewDone
	switch {
	case err != nil && res == nil:
		fmt.Fprintf(stderr, "%s failed to run: %v\n", tag, err)
		_, _ = cl.Fail(lease, err.Error())
	case res.Cancelled:
		// Lease lost or SIGINT: no settle. If the lease expired the cell
		// is already reissued; the partial run was never archived.
		fmt.Fprintf(stderr, "%s abandoned (lease lost or interrupted)\n", tag)
	case err != nil:
		// The run completed but archiving it failed; leave the lease to
		// expire so another worker (or a retry here) lands the record.
		fmt.Fprintf(stderr, "%s: %v\n", tag, err)
	default:
		return res
	}
	return nil
}

// farmStatus reports progress: live from a coordinator's /status when
// -coordinator is given, otherwise offline from the archive alone by
// counting the spec's cells whose archive id it holds. A cell's id is
// computed under -version, as `farm work -version` archived it.
func farmStatus(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("farm status", flag.ContinueOnError)
	geom := farmGeometry(fs)
	var (
		coord   = fs.String("coordinator", "", "coordinator URL to query (live status)")
		archDir = fs.String("archive", "", "archive directory for offline status (with the spec flags)")
		version = fs.String("version", "", "code version the workers stamped onto archived runs")
	)
	if code := parseOnlyFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if (*coord == "") == (*archDir == "") {
		fmt.Fprintln(stderr, "usage: bulletctl farm status (-coordinator URL | -archive DIR [spec flags])")
		return 2
	}
	if *coord != "" {
		cl := &lab.FarmClient{Base: *coord}
		st, err := cl.Status()
		if err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		renderFarmStatus(stdout, st)
		return 0
	}
	arch, code := openArchiveArg(*archDir, stderr)
	if code >= 0 {
		return code
	}
	if *version != "" {
		arch.SetVersion(*version)
	}
	spec := geom.farmSpec()
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, "bulletctl:", err)
		return 1
	}
	cells := spec.Cells()
	st := lab.FarmStatus{Total: len(cells)}
	for _, cell := range cells {
		exp, err := bulletprime.New(cellConfig(spec, cell, arch))
		if err != nil {
			fmt.Fprintln(stderr, "bulletctl:", err)
			return 1
		}
		if arch.Has(exp.RunID()) {
			st.Done++
		}
	}
	st.Pending = st.Total - st.Done
	renderFarmStatus(stdout, st)
	return 0
}

// renderFarmStatus prints one status snapshot in a stable order.
func renderFarmStatus(w io.Writer, st lab.FarmStatus) {
	fmt.Fprintf(w, "cells %d: %d done, %d pending, %d leased, %d failed (%d reissues)\n",
		st.Total, st.Done, st.Pending, st.Leased, st.Failed, st.Reissues)
	for _, f := range st.Failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
}
