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
		"-archive", arch,
		"-nodes", "100", "-filemb", "8",
		"-protocols", "bulletprime", "-seeds", "2", "-reps", "2",
	}
	const cells = 2 * 2 // protocols x networks x seeds x reps

	// Coordinator with a short TTL so the killed worker's cell is
	// reissued quickly, and a hard wall bound so a wedged farm fails the
	// test instead of hanging it.
	coord := bulletctlCmd(append([]string{"farm", "coordinate",
		"-addr", "127.0.0.1:0", "-ttl", "2", "-wall", "120", "-linger", "2"},
		specArgs...)...)
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
	defer coord.Process.Kill()

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
	// victim's reissued cell.
	finisher := bulletctlCmd("farm", "work", "-coordinator", base,
		"-worker", "finisher", "-archive", arch)
	finisher.Stderr = io.Discard
	if err := finisher.Start(); err != nil {
		t.Fatal(err)
	}
	defer finisher.Process.Kill()

	outData, _ := io.ReadAll(coordOut)
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator failed: %v\n%s", err, outData)
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
	_ = finisher.Wait()

	// Resuming the finished farm is a no-op: every cell is already
	// archived, no worker is needed, and the record count is unchanged.
	resume := bulletctlCmd(append([]string{"farm", "resume",
		"-addr", "127.0.0.1:0", "-wall", "30", "-linger", "0"}, specArgs...)...)
	resumeOut, err := resume.CombinedOutput()
	if err != nil {
		t.Fatalf("farm resume over a complete archive failed: %v\n%s", err, resumeOut)
	}
	if !strings.Contains(string(resumeOut), fmt.Sprintf("cells %d: %d done", cells, cells)) {
		t.Fatalf("resume did not report completion from the archive alone:\n%s", resumeOut)
	}
	metas, err = a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != cells {
		t.Fatalf("resume duplicated records: %d, want %d", len(metas), cells)
	}
}

// TestFarmStatusOffline pins that `farm status -archive` needs no
// coordinator: it reconstructs progress from the archive and the spec.
func TestFarmStatusOffline(t *testing.T) {
	dir := t.TempDir()
	// An empty archive: everything pending.
	var out, errb strings.Builder
	code := dispatch([]string{"farm", "status", "-archive", dir,
		"-nodes", "8", "-filemb", "0.5", "-protocols", "bulletprime", "-seeds", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("offline status exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "cells 2: 0 done, 2 pending") {
		t.Fatalf("offline status output:\n%s", out.String())
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
		{"farm", "coordinate"},            // missing -archive
		{"farm", "work", "-archive", "x"}, // missing -coordinator
		{"farm", "status"},                // neither source
		{"farm", "status", "-coordinator", "u", "-archive", "d"}, // both sources
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := dispatch(args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}
