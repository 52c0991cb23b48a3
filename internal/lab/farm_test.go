package lab

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

func testSpec() FarmSpec {
	return FarmSpec{
		Nodes:     8,
		FileMB:    1,
		Protocols: []string{"bulletprime", "bittorrent"},
		Networks:  []string{"modelnet"},
		Seeds:     []int64{1, 2},
		Reps:      2,
	}
}

func TestFarmSpecCells(t *testing.T) {
	spec := testSpec()
	cells := spec.Cells()
	if len(cells) != 2*1*2*2 {
		t.Fatalf("%d cells, want 8", len(cells))
	}
	// Deterministic protocol-major order, rep-derived seeds.
	if cells[0] != (Cell{Index: 0, Protocol: "bulletprime", Network: "modelnet", Seed: 1, Rep: 0}) {
		t.Fatalf("cell 0: %+v", cells[0])
	}
	if cells[1].Rep != 1 || cells[1].Seed != RepSeed(1, 1) {
		t.Fatalf("cell 1 not the rep-derived twin: %+v", cells[1])
	}
	seen := map[int64]bool{}
	for _, c := range cells {
		key := c.Seed
		if c.Protocol == "bittorrent" {
			key = -key
		}
		if seen[key] {
			t.Fatalf("duplicate derived seed %d in %+v", c.Seed, c)
		}
		seen[key] = true
	}

	if (&FarmSpec{}).Validate() == nil {
		t.Fatal("empty spec must not validate")
	}
}

func TestRepSeed(t *testing.T) {
	if RepSeed(7, 0) != 7 {
		t.Fatal("rep 0 must be the base seed")
	}
	if RepSeed(7, 1) == RepSeed(7, 2) || RepSeed(7, 1) == RepSeed(8, 1) {
		t.Fatal("derived seeds collide")
	}
}

// farmAt builds a farm with a hand-controlled clock.
func farmAt(t *testing.T, spec FarmSpec, ttl time.Duration) (*Farm, *time.Time) {
	t.Helper()
	f, err := NewFarm(spec, ttl)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	f.now = func() time.Time { return now }
	return f, &now
}

func TestFarmClaimCompleteLifecycle(t *testing.T) {
	f, _ := farmAt(t, testSpec(), time.Minute)
	total := len(f.cells)
	leases := map[string]string{} // lease -> worker
	cells := map[string]Cell{}
	for {
		c, lease, verdict := f.Claim("w1")
		if verdict != ClaimGranted {
			break
		}
		leases[lease] = "w1"
		cells[lease] = c
	}
	if len(leases) != total {
		t.Fatalf("claimed %d cells, want %d", len(leases), total)
	}
	if _, _, verdict := f.Claim("w2"); verdict != ClaimWait {
		t.Fatalf("fully-leased farm should answer wait, got %v", verdict)
	}
	for lease, c := range cells {
		if !f.Complete(lease, fmt.Sprintf("run-%d", c.Index)) {
			t.Fatalf("complete %s failed", lease)
		}
	}
	if _, _, verdict := f.Claim("w2"); verdict != ClaimDone {
		t.Fatal("completed farm should answer done")
	}
	st := f.Status()
	if !st.Complete() || st.Done != total || st.Workers["w1"] != total {
		t.Fatalf("status %+v", st)
	}
	if got := len(f.RunIDs()); got != total {
		t.Fatalf("%d run ids, want %d", got, total)
	}
}

func TestFarmLeaseExpiryReissues(t *testing.T) {
	f, now := farmAt(t, testSpec(), time.Minute)
	c1, lease1, verdict := f.Claim("w1")
	if verdict != ClaimGranted {
		t.Fatal("first claim refused")
	}
	// Before expiry the cell is not reissued; after, it is — under a
	// fresh lease, to a different worker, and the old lease is dead.
	*now = now.Add(30 * time.Second)
	if !f.Renew(lease1) {
		t.Fatal("live lease must renew")
	}
	*now = now.Add(2 * time.Minute)
	c2, lease2, verdict := f.Claim("w2")
	if verdict != ClaimGranted || c2.Index != c1.Index {
		t.Fatalf("expired cell not reissued first: %+v / %v", c2, verdict)
	}
	if lease2 == lease1 {
		t.Fatal("reissue must mint a fresh lease")
	}
	if f.Renew(lease1) {
		t.Fatal("expired lease must not renew")
	}
	if f.Complete(lease1, "stale") {
		t.Fatal("expired lease must not complete")
	}
	if !f.Complete(lease2, "run-x") {
		t.Fatal("live reissued lease must complete")
	}
	if st := f.Status(); st.Reissues != 1 || st.Done != 1 {
		t.Fatalf("status %+v", st)
	}
}

func TestFarmFailIsTerminal(t *testing.T) {
	spec := testSpec()
	spec.Protocols = []string{"bulletprime"}
	spec.Seeds = []int64{1}
	spec.Reps = 1
	f, _ := farmAt(t, spec, time.Minute)
	_, lease, _ := f.Claim("w1")
	if !f.Fail(lease, "no such protocol") {
		t.Fatal("fail refused")
	}
	if _, _, verdict := f.Claim("w1"); verdict != ClaimDone {
		t.Fatal("failed-out farm must answer done, not reissue the poison cell")
	}
	st := f.Status()
	if !st.Complete() || st.Failed != 1 || len(st.Failures) != 1 {
		t.Fatalf("status %+v", st)
	}
}

func TestFarmResumeFromArchive(t *testing.T) {
	spec := testSpec()
	spec.Reps = 1
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Archive one of the four cells (bulletprime/modelnet/seed 1).
	run := mkRun("bulletprime", "modelnet", "", 1, 10, 20, 30)
	run.Meta.Config = []byte(`{"protocol":"bulletprime"}`)
	run.Meta.Nodes = spec.Nodes
	run.Meta.FileBytes = spec.FileMB * 1e6
	if _, _, err := arch.Put(run); err != nil {
		t.Fatal(err)
	}
	// A same-seed run at a different node count must not satisfy a cell.
	other := mkRun("bittorrent", "modelnet", "", 1, 10, 20, 30)
	other.Meta.Config = []byte(`{"protocol":"bittorrent","nodes":99}`)
	other.Meta.Nodes = 99
	if _, _, err := arch.Put(other); err != nil {
		t.Fatal(err)
	}

	f, _ := farmAt(t, spec, time.Minute)
	n, err := f.ResumeFromArchive(arch)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed %d cells, want 1", n)
	}
	st := f.Status()
	if st.Done != 1 || st.Pending != len(f.cells)-1 {
		t.Fatalf("status after resume %+v", st)
	}
}

// TestFarmResumeIgnoresOtherSettings pins that a record of a cell's
// protocol, network and seed resumes it only when it ran with the cell's
// settings: a different file size or deadline, a scenario, or synthetic
// bandwidth changes leave the cell pending.
func TestFarmResumeIgnoresOtherSettings(t *testing.T) {
	spec := testSpec()
	spec.Reps = 1
	spec.Deadline = 600
	put := func(arch *Archive, mut func(*Run)) {
		t.Helper()
		run := mkRun("bulletprime", "modelnet", "", 1, 10, 20, 30)
		run.Meta.Config = []byte(`{"protocol":"bulletprime","deadline":600}`)
		run.Meta.Nodes = spec.Nodes
		run.Meta.FileBytes = spec.FileMB * 1e6
		mut(run)
		if _, _, err := arch.Put(run); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		mut  func(*Run)
		want int
	}{
		{"same settings", func(*Run) {}, 1},
		{"twice the file", func(r *Run) { r.Meta.FileBytes = 2e6 }, 0},
		{"a scenario", func(r *Run) { r.Meta.Scenario, r.Meta.ScenarioName = "d1g3st", "outage" }, 0},
		{"another deadline", func(r *Run) { r.Meta.Config = []byte(`{"protocol":"bulletprime","deadline":3600}`) }, 0},
		{"dynamic bandwidth", func(r *Run) {
			r.Meta.Config = []byte(`{"protocol":"bulletprime","dynamic_bandwidth":true,"deadline":600}`)
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arch, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			put(arch, tc.mut)
			f, _ := farmAt(t, spec, time.Minute)
			n, err := f.ResumeFromArchive(arch)
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.want {
				t.Fatalf("resumed %d cells, want %d", n, tc.want)
			}
		})
	}
}

func TestFarmHTTPRoundTrip(t *testing.T) {
	f, _ := farmAt(t, testSpec(), time.Minute)
	srv := httptest.NewServer(&FarmServer{Farm: f})
	defer srv.Close()
	cl := &FarmClient{Base: srv.URL, Worker: "w1"}

	spec, err := cl.Spec()
	if err != nil || spec.Nodes != 8 {
		t.Fatalf("spec %+v, %v", spec, err)
	}
	total := len(f.cells)
	for i := 0; i < total; i++ {
		cell, lease, ttl, verdict, err := cl.Claim()
		if err != nil || verdict != ClaimGranted || ttl <= 0 {
			t.Fatalf("claim %d: %v %v %v", i, verdict, ttl, err)
		}
		if ok, err := cl.Renew(lease); err != nil || !ok {
			t.Fatalf("renew: %v %v", ok, err)
		}
		if ok, err := cl.Complete(lease, fmt.Sprintf("run-%d", cell.Index)); err != nil || !ok {
			t.Fatalf("complete: %v %v", ok, err)
		}
	}
	if _, _, _, verdict, err := cl.Claim(); err != nil || verdict != ClaimDone {
		t.Fatalf("drained farm: %v %v", verdict, err)
	}
	st, err := cl.Status()
	if err != nil || !st.Complete() || st.Done != total {
		t.Fatalf("status %+v, %v", st, err)
	}
	// Settled leases answer 410 on late settle attempts.
	if ok, _ := cl.Complete("w1-0-1", "late"); ok {
		t.Fatal("settled lease must answer gone")
	}
}
