package main

// The farm's end-to-end acceptance test: a coordinator and two real
// worker PROCESSES over a shared archive, one worker SIGKILLed mid-run.
// The lease reissue plus content-hash dedupe must drive the sweep to
// completion with exactly one archive record per cell — no losses, no
// duplicates. Workers are separate processes (the test binary re-execing
// itself into dispatch), not goroutines, because the failure mode under
// test is a worker dying without unwinding anything.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bulletprime"
	"bulletprime/internal/lab"
)

func TestMain(m *testing.M) {
	// Re-exec mode: behave as the bulletctl binary. The e2e test spawns
	// `<test-binary> farm work ...` with this variable set.
	if os.Getenv("BULLETCTL_DISPATCH") == "1" {
		os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// bulletctlCmd builds an exec.Cmd running this test binary as bulletctl.
func bulletctlCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BULLETCTL_DISPATCH=1")
	return cmd
}

// syncBuffer is a goroutine-safe writer: exec copies a child's stderr
// into it from its own goroutine while the test polls String().
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestFarmEndToEndKillWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and runs ~10s of experiments")
	}
	dir := t.TempDir()
	arch := filepath.Join(dir, "bench")
	// Cell geometry is chosen for wall time: at 100 nodes / 8 MB a cell
	// runs ~1s, so the kill below lands mid-cell rather than racing a
	// near-instant run to completion.
	specArgs := []string{
		"-nodes", "100", "-filemb", "8",
		"-protocols", "bulletprime", "-seeds", "2", "-reps", "2",
	}
	const cells = 2 * 2 // protocols x networks x seeds x reps

	// Coordinator with a short TTL so the killed worker's cell is
	// reissued quickly, and a hard wall bound so a wedged farm fails the
	// test instead of hanging it.
	coord, coordOut, base := startCoordinator(t, append([]string{
		"-ttl", "2", "-wall", "120", "-linger", "2"}, specArgs...)...)

	// Worker 1: the victim. The worker announces each claim on stderr
	// before running the cell; the moment the first claim lands, SIGKILL
	// it mid-cell — no cleanup, no unwind, exactly like a crashed machine.
	var victimLog syncBuffer
	victim := bulletctlCmd("farm", "work", "-coordinator", base,
		"-worker", "victim", "-archive", arch)
	victim.Stderr = &victimLog
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !strings.Contains(victimLog.String(), ") claimed") {
		if time.Now().After(deadline) {
			t.Fatalf("victim never claimed a cell; victim log:\n%s", victimLog.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()
	if strings.Contains(victimLog.String(), "done:") {
		t.Logf("note: victim settled a cell before dying; log:\n%s", victimLog.String())
	}

	// Worker 2 drives the rest of the sweep to completion, including the
	// victim's reissued cell. It exits cleanly only on the coordinator's
	// done verdict; if it dies first, nothing else would finish the farm,
	// so the test stops the coordinator and fails at once instead of
	// waiting out its -wall bound.
	var finisherLog syncBuffer
	finisher := bulletctlCmd("farm", "work", "-coordinator", base,
		"-worker", "finisher", "-archive", arch)
	finisher.Stderr = &finisherLog
	if err := finisher.Start(); err != nil {
		t.Fatal(err)
	}
	defer finisher.Process.Kill()
	finisherExit := make(chan error, 1)
	go func() { finisherExit <- finisher.Wait() }()
	coordExit := make(chan error, 1)
	var outData []byte
	go func() {
		outData, _ = io.ReadAll(coordOut)
		coordExit <- coord.Wait()
	}()
	select {
	case err := <-finisherExit:
		if err != nil || !strings.Contains(finisherLog.String(), "farm complete") {
			coord.Process.Kill()
			t.Fatalf("finisher exited (%v) before the farm was done; finisher log:\n%s", err, finisherLog.String())
		}
		if err := <-coordExit; err != nil {
			t.Fatalf("coordinator failed: %v\n%s", err, outData)
		}
	case err := <-coordExit:
		if err != nil {
			t.Fatalf("coordinator failed: %v\n%s\nfinisher log:\n%s", err, outData, finisherLog.String())
		}
	}
	summary := string(outData)
	if !strings.Contains(summary, fmt.Sprintf("cells %d: %d done, 0 pending, 0 leased, 0 failed", cells, cells)) {
		t.Fatalf("farm did not complete cleanly:\n%s", summary)
	}
	if !strings.Contains(summary, fmt.Sprintf("distinct archived runs: %d", cells)) {
		t.Fatalf("settled run ids are not %d distinct:\n%s", cells, summary)
	}

	// THE acceptance assertion: the shared archive holds exactly one
	// record per cell. A lost cell would leave fewer; a double-executed
	// cell that failed to dedupe would leave more.
	a, err := lab.Open(arch)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != cells {
		t.Fatalf("archive holds %d records, want exactly %d (no losses, no duplicates)", len(metas), cells)
	}
	for _, m := range metas {
		if _, err := a.Load(m.ID); err != nil {
			t.Fatalf("record %s unreadable after the kill/resume cycle: %v", m.ID, err)
		}
	}

	// Running the finished farm again runs nothing: its one worker finds
	// every cell's record, settles it as already archived, and the archive
	// keeps exactly its records.
	var before []string
	for _, m := range metas {
		before = append(before, m.ID)
	}
	again, againOut, againBase := startCoordinator(t, append([]string{
		"-wall", "60", "-linger", "1"}, specArgs...)...)
	workOut, err := bulletctlCmd("farm", "work", "-coordinator", againBase,
		"-worker", "again", "-archive", arch).CombinedOutput()
	if err != nil {
		t.Fatalf("worker over the finished farm failed: %v\n%s", err, workOut)
	}
	summary2, _ := io.ReadAll(againOut)
	if err := again.Wait(); err != nil {
		t.Fatalf("coordinator over the finished farm failed: %v\n%s", err, summary2)
	}
	if !strings.Contains(string(summary2), fmt.Sprintf("cells %d: %d done", cells, cells)) {
		t.Fatalf("second run did not complete:\n%s", summary2)
	}
	if n := strings.Count(string(workOut), "already archived"); n != cells || strings.Contains(string(workOut), "done:") {
		t.Fatalf("worker over the finished farm ran cells (%d already archived, want %d):\n%s", n, cells, workOut)
	}
	metas, err = a.List()
	if err != nil {
		t.Fatal(err)
	}
	var after []string
	for _, m := range metas {
		after = append(after, m.ID)
	}
	if strings.Join(after, " ") != strings.Join(before, " ") {
		t.Fatalf("running the finished farm again moved the records: %v → %v", before, after)
	}
}

// startCoordinator starts `farm coordinate` on a free loopback port with the
// given flags and returns the process, its stdout and its announced URL.
func startCoordinator(t *testing.T, args ...string) (*exec.Cmd, io.ReadCloser, string) {
	t.Helper()
	coord := bulletctlCmd(append([]string{"farm", "coordinate", "-addr", "127.0.0.1:0"}, args...)...)
	coordErr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	coordOut, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Process.Kill() })
	// The coordinator prints its resolved address; scrape it.
	base := ""
	scan := bufio.NewScanner(coordErr)
	for scan.Scan() {
		line := scan.Text()
		if i := strings.Index(line, "coordinating on "); i >= 0 {
			base = strings.TrimSpace(line[i+len("coordinating on "):])
			break
		}
	}
	if base == "" {
		t.Fatal("coordinator never announced its address")
	}
	go io.Copy(io.Discard, coordErr) // keep the pipe drained
	return coord, coordOut, base
}

// TestFarmStatusOffline pins that `farm status -archive` needs no
// coordinator: it counts the spec's cells whose record the archive holds.
func TestFarmStatusOffline(t *testing.T) {
	dir := t.TempDir()
	status := func() string {
		t.Helper()
		var out, errb strings.Builder
		code := dispatch([]string{"farm", "status", "-archive", dir,
			"-nodes", "8", "-filemb", "0.5", "-protocols", "bulletprime", "-seeds", "2"}, &out, &errb)
		if code != 0 {
			t.Fatalf("offline status exit %d: %s", code, errb.String())
		}
		return out.String()
	}
	// An empty archive: everything pending.
	if out := status(); !strings.Contains(out, "cells 2: 0 done, 2 pending") {
		t.Fatalf("offline status output:\n%s", out)
	}
	// A worker records seed 1's cell: that cell, and only it, is done.
	spec := lab.FarmSpec{Nodes: 8, FileMB: 0.5, Protocols: []string{"bulletprime"},
		Networks: []string{"modelnet"}, Seeds: []int64{1}, Deadline: 3600}
	farm, err := lab.NewFarm(spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&lab.FarmServer{Farm: farm})
	defer srv.Close()
	var out, errb strings.Builder
	if code := dispatch([]string{"farm", "work", "-coordinator", srv.URL, "-archive", dir}, &out, &errb); code != 0 {
		t.Fatalf("farm work exit %d: %s", code, errb.String())
	}
	if out := status(); !strings.Contains(out, "cells 2: 1 done, 1 pending, 0 leased, 0 failed (0 reissues)") {
		t.Fatalf("offline status output:\n%s", out)
	}
}

// TestRunFarmCellSettlesItsLease runs the two cells of an in-process
// farm through the worker's cell step: a cell that runs completes its
// lease and lands one archive record, and a cell whose configuration the
// runner rejects fails its lease for good.
func TestRunFarmCellSettlesItsLease(t *testing.T) {
	spec := lab.FarmSpec{Nodes: 8, FileMB: 0.25, Protocols: []string{"bulletprime", "no-such-protocol"},
		Networks: []string{"modelnet"}, Seeds: []int64{1}}
	farm, err := lab.NewFarm(spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&lab.FarmServer{Farm: farm})
	defer srv.Close()
	cl := &lab.FarmClient{Base: srv.URL, Worker: "w1"}
	arch, err := bulletprime.OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	var errb strings.Builder
	ran := map[string]bool{}
	for range 2 {
		cell, lease, ttl, verdict, err := cl.Claim()
		if err != nil || verdict != lab.ClaimGranted {
			t.Fatalf("claim: %v %v", verdict, err)
		}
		ran[cell.Protocol] = runFarmCell(context.Background(), cl, arch, spec, cell, lease, ttl, "w1", &errb)
	}
	if !ran["bulletprime"] || ran["no-such-protocol"] {
		t.Fatalf("cells completed: %v\n%s", ran, errb.String())
	}
	st := farm.Status()
	if !st.Complete() || st.Done != 1 || st.Failed != 1 || len(st.Failures) != 1 {
		t.Fatalf("farm status %+v", st)
	}
	if metas, err := arch.List(); err != nil || len(metas) != 1 {
		t.Fatalf("archive holds %d records (%v), want 1", len(metas), err)
	}
}

// TestFarmUsageErrors pins the exit-code contract: bad verbs and missing
// required flags are usage errors (2), never silent successes.
func TestFarmUsageErrors(t *testing.T) {
	cases := [][]string{
		{"farm"},
		{"farm", "harvest"},
		{"farm", "resume"},                      // not a verb: run coordinate again
		{"farm", "coordinate", "-archive", "x"}, // the coordinator holds no archive
		{"farm", "work", "-archive", "x"},       // missing -coordinator
		{"farm", "status"},                      // neither source
		{"farm", "status", "-coordinator", "u", "-archive", "d"}, // both sources
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := dispatch(args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestFarmCountsOnlyItsOwnRecord pins that a farm cell is done exactly when
// the archive holds the record a farm worker would write for it. Two other
// records of the cell's protocol, network, seed, nodes, file and deadline
// are other runs: `run -archive` keeps a series at the 5 s cadence, and
// `sweep -version v1` stamps another code version. Over either, `farm status
// -archive` counts the cell pending, and `farm work` runs it under its own
// id beside the foreign record. Over the farm's own record the cell is done,
// and a worker settles it as already archived without running it.
func TestFarmCountsOnlyItsOwnRecord(t *testing.T) {
	geom := []string{"-nodes", "8", "-filemb", "0.25", "-deadline", "3600"}
	spec := lab.FarmSpec{Nodes: 8, FileMB: 0.25, Protocols: []string{"bulletprime"},
		Networks: []string{"modelnet"}, Seeds: []int64{1}, Deadline: 3600}
	bulletctl := func(args ...string) string {
		t.Helper()
		var out, errb strings.Builder
		if code := dispatch(args, &out, &errb); code != 0 {
			t.Fatalf("bulletctl %v: exit %d\n%s%s", args, code, out.String(), errb.String())
		}
		return out.String() + errb.String()
	}
	// work serves the one-cell spec from an in-process coordinator and
	// drains it with one `farm work` process image; it returns the log.
	work := func(dir string) string {
		t.Helper()
		farm, err := lab.NewFarm(spec, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(&lab.FarmServer{Farm: farm})
		defer srv.Close()
		log := bulletctl("farm", "work", "-coordinator", srv.URL, "-worker", "w1", "-archive", dir)
		if st := farm.Status(); st.Done != 1 {
			t.Fatalf("farm work left %+v\n%s", st, log)
		}
		return log
	}
	ids := func(dir string) []string {
		t.Helper()
		a, err := lab.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		metas, err := a.List()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range metas {
			out = append(out, m.ID)
		}
		return out
	}
	cases := []struct {
		name   string
		record func(dir string)
		own    bool
	}{
		{"run -archive", func(dir string) {
			bulletctl(append([]string{"run", "-archive", dir, "-protocol", "bulletprime",
				"-network", "modelnet", "-seed", "1"}, geom...)...)
		}, false},
		{"sweep -version v1", func(dir string) {
			bulletctl(append([]string{"sweep", "-archive", dir, "-version", "v1",
				"-protocols", "bulletprime", "-networks", "modelnet", "-seeds", "1"}, geom...)...)
		}, false},
		{"farm work", func(dir string) { work(dir) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "archive")
			tc.record(dir)
			before := ids(dir)
			if len(before) != 1 {
				t.Fatalf("recording left %d records, want 1", len(before))
			}
			status := bulletctl(append([]string{"farm", "status", "-archive", dir,
				"-protocols", "bulletprime", "-seeds", "1"}, geom...)...)
			want := "cells 1: 0 done, 1 pending"
			if tc.own {
				want = "cells 1: 1 done, 0 pending"
			}
			if !strings.Contains(status, want) {
				t.Fatalf("farm status over a %s record:\n%swant %q", tc.name, status, want)
			}
			log := work(dir)
			after := ids(dir)
			if tc.own {
				if !strings.Contains(log, "already archived") || strings.Contains(log, "done:") ||
					strings.Join(after, " ") != strings.Join(before, " ") {
					t.Fatalf("farm work over its own record ran the cell: records %v → %v\n%s", before, after, log)
				}
				return
			}
			if len(after) != 2 || !strings.Contains(log, "done:") {
				t.Fatalf("farm work over a %s record did not run the cell under its own id: records %v → %v\n%s",
					tc.name, before, after, log)
			}
		})
	}
}
