package lab

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
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

// cellRun is the record a worker would write for cell c of spec, with
// extra appended to its config JSON: its key inputs are the config, the
// scenario digest (none), the seed and the archive's version.
func cellRun(spec FarmSpec, c Cell, extra string) *Run {
	run := mkRun(c.Protocol, c.Network, "", c.Seed, 10, 20, 30)
	run.Meta.Config = []byte(fmt.Sprintf(`{"protocol":%q,"nodes":%d,"file_bytes":%g,"network":%q,"seed":%d,"deadline":%g%s}`,
		c.Protocol, spec.Nodes, spec.FileMB*1e6, c.Network, c.Seed, spec.Deadline, extra))
	return run
}

// doneCells counts the spec's cells whose record the archive holds: the
// one rule a worker and `farm status` apply.
func doneCells(t *testing.T, spec FarmSpec, arch *Archive) int {
	t.Helper()
	n := 0
	for _, c := range spec.Cells() {
		m := cellRun(spec, c, "").Meta
		if arch.Has(Key(m.Config, m.Scenario, m.Seed, arch.Version())) {
			n++
		}
	}
	return n
}

// TestFarmRestartFindsRecordedCells pins that a farm restarted over an
// archive finds done exactly the cells whose ids the archive holds, and that
// Has is the check Put dedupes on.
func TestFarmRestartFindsRecordedCells(t *testing.T) {
	spec := testSpec()
	spec.Reps = 1
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	// Archive one of the four cells (bulletprime/modelnet/seed 1).
	run := cellRun(spec, cells[0], "")
	id, created, err := arch.Put(run)
	if err != nil || !created || !arch.Has(id) {
		t.Fatalf("Put: id %s created %v err %v, Has %v", id, created, err, arch.Has(id))
	}
	if _, created, _ := arch.Put(cellRun(spec, cells[0], "")); created {
		t.Fatal("Put wrote a second record of an id Has reports held")
	}
	// A same-seed run at a different node count must not satisfy a cell.
	other := spec
	other.Nodes = 99
	if _, _, err := arch.Put(cellRun(other, cells[2], "")); err != nil {
		t.Fatal(err)
	}
	if n := doneCells(t, spec, arch); n != 1 {
		t.Fatalf("%d cells done, want 1", n)
	}
}

// TestFarmResumeIgnoresOtherSettings pins that a record of a cell's
// protocol, network and seed marks it done only when it ran with the cell's
// settings: a different file size or deadline, a scenario, synthetic
// bandwidth changes or another code version are other ids, and leave the
// cell pending.
func TestFarmResumeIgnoresOtherSettings(t *testing.T) {
	spec := testSpec()
	spec.Reps = 1
	spec.Deadline = 600
	cases := []struct {
		name string
		mut  func(*Run)
		want int
	}{
		{"same settings", func(*Run) {}, 1},
		{"twice the file", func(r *Run) {
			twice := spec
			twice.FileMB *= 2
			r.Meta.Config = cellRun(twice, spec.Cells()[0], "").Meta.Config
		}, 0},
		{"a scenario", func(r *Run) { r.Meta.Scenario, r.Meta.ScenarioName = "d1g3st", "outage" }, 0},
		{"another deadline", func(r *Run) {
			later := spec
			later.Deadline = 3600
			r.Meta.Config = cellRun(later, spec.Cells()[0], "").Meta.Config
		}, 0},
		{"dynamic bandwidth", func(r *Run) {
			r.Meta.Config = cellRun(spec, spec.Cells()[0], `,"dynamic_bandwidth":true`).Meta.Config
		}, 0},
		{"another version", func(r *Run) { r.Meta.Version = "v1" }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arch, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			run := cellRun(spec, spec.Cells()[0], "")
			tc.mut(run)
			if _, _, err := arch.Put(run); err != nil {
				t.Fatal(err)
			}
			if n := doneCells(t, spec, arch); n != tc.want {
				t.Fatalf("%d cells done, want %d", n, tc.want)
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

// FuzzFarmServer: a request the coordinator did not write, whatever its
// method, path and body, gets one of the claim protocol's statuses and never
// a panic, and a granted claim carries one of the spec's cells.
func FuzzFarmServer(f *testing.F) {
	for _, s := range []struct{ method, path, body string }{
		{"POST", "/claim", `{"worker":"w2"}`},
		{"POST", "/claim", `{"worker":""}`},
		{"POST", "/renew", `{"lease":"w-0-1"}`},
		{"POST", "/complete", `{"lease":"w-0-1","run_id":"r"}`},
		{"POST", "/fail", `{"lease":"w-0-1","error":"e"}`},
		{"POST", "/complete", `{"lease":"w-9-9"}`},
		{"GET", "/spec", ""},
		{"GET", "/status", ""},
		{"GET", "/claim", ""},
		{"POST", "/claim", `{"worker":`},
		{"DELETE", "/nope", "[]"},
	} {
		f.Add(s.method, s.path, []byte(s.body))
	}
	spec := testSpec()
	spec.Reps = 1
	cells := spec.Cells()
	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		farm, _ := farmAt(t, spec, time.Minute)
		if _, lease, _ := farm.Claim("w"); lease != "w-0-1" {
			t.Fatalf("first lease %q", lease)
		}
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		req.Method, req.URL.Path = method, path
		rec := httptest.NewRecorder()
		(&FarmServer{Farm: farm}).ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound,
			http.StatusMethodNotAllowed, http.StatusGone:
		default:
			t.Fatalf("%s %q %q: status %d", method, path, body, rec.Code)
		}
		if path == "/claim" && rec.Code == http.StatusOK {
			var resp claimResponse
			if err := decodeBody(rec.Body, &resp); err != nil {
				t.Fatalf("granted claim does not decode: %v", err)
			}
			if i := resp.Cell.Index; i < 0 || i >= len(cells) || resp.Cell != cells[i] || resp.Lease == "" {
				t.Fatalf("granted claim %+v is none of the spec's cells", resp)
			}
		}
		if st := farm.Status(); st.Done+st.Leased+st.Pending+st.Failed != st.Total {
			t.Fatalf("status %+v does not sum to its total", st)
		}
	})
}

// TestFarmClientBoundsResponses pins that a worker reads at most maxBody of
// a coordinator's response, as the coordinator reads at most that of a
// request: a larger document is an error, not an allocation.
func TestFarmClientBoundsResponses(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"nodes":8,"protocols":[%q]}`, strings.Repeat("x", maxBody))
	}))
	defer srv.Close()
	if _, err := (&FarmClient{Base: srv.URL}).Spec(); err == nil {
		t.Fatal("a spec larger than maxBody decoded")
	}
}

// TestFarmLeaseModel drives the claim store through randomized interleavings
// of claim, renew, expiry, complete and fail on its injectable clock, and
// checks each answer against a model of the lease protocol: a claim grants
// the first pending or expired cell under a fresh lease, only a cell's
// current unexpired lease may renew or settle it, every cell settles
// exactly once, and Status' counts sum to Total at every step. A failure
// names its seed.
func TestFarmLeaseModel(t *testing.T) {
	const ttl = 10 * time.Second
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := testSpec()
		spec.Protocols = spec.Protocols[:1+rng.Intn(2)]
		spec.Seeds = []int64{1, 2, 3}[:1+rng.Intn(3)]
		spec.Reps = 1 + rng.Intn(2)
		f, now := farmAt(t, spec, ttl)
		n := len(f.cells)
		// The model: each cell's current lease and its expiry, and how many
		// times it settled; every lease ever granted, live or dead.
		current := make([]string, n)
		expiry := make([]time.Time, n)
		settled := make([]int, n)
		failed := make([]bool, n)
		var leases []string
		cellOf := map[string]int{}
		live := func(lease string) bool {
			i, ok := cellOf[lease]
			return ok && settled[i] == 0 && current[i] == lease && !now.After(expiry[i])
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
		}
		check := func() {
			t.Helper()
			st := f.Status()
			var want FarmStatus
			want.Total = n
			for i := range n {
				switch {
				case settled[i] > 0 && failed[i]:
					want.Failed++
				case settled[i] > 0:
					want.Done++
				case current[i] != "" && !now.After(expiry[i]):
					want.Leased++
				default:
					want.Pending++
				}
			}
			if st.Done+st.Leased+st.Pending+st.Failed != st.Total || st.Total != n ||
				st.Done != want.Done || st.Leased != want.Leased || st.Pending != want.Pending || st.Failed != want.Failed {
				fail("status %+v, model %+v", st, want)
			}
		}
		claim := func() ClaimVerdict {
			t.Helper()
			wantCell, open := -1, false
			for i := range n {
				if settled[i] > 0 {
					continue
				}
				open = true
				if wantCell < 0 && (current[i] == "" || now.After(expiry[i])) {
					wantCell = i
				}
			}
			c, lease, verdict := f.Claim(fmt.Sprintf("w%d", rng.Intn(3)))
			switch {
			case wantCell >= 0:
				if verdict != ClaimGranted || c.Index != wantCell {
					fail("claim gave %v cell %d, model cell %d", verdict, c.Index, wantCell)
				}
				if _, seen := cellOf[lease]; seen {
					fail("claim reissued lease %q", lease)
				}
				current[wantCell], expiry[wantCell] = lease, now.Add(ttl)
				cellOf[lease] = wantCell
				leases = append(leases, lease)
			case open && verdict != ClaimWait, !open && verdict != ClaimDone:
				fail("claim gave %v with open=%v", verdict, open)
			}
			return verdict
		}
		settle := func(lease string, ok, asFail bool) {
			t.Helper()
			if ok != live(lease) {
				fail("settling lease %q answered %v, model says live=%v", lease, ok, live(lease))
			}
			if ok {
				i := cellOf[lease]
				settled[i]++
				failed[i] = asFail
			}
		}
		for step := 0; step < 60; step++ {
			pick := func() string {
				if len(leases) == 0 {
					return "none"
				}
				return leases[rng.Intn(len(leases))]
			}
			switch op := rng.Intn(10); {
			case op < 3:
				claim()
			case op < 5:
				lease := pick()
				ok := f.Renew(lease)
				if ok != live(lease) {
					fail("renew of %q answered %v, model says live=%v", lease, ok, live(lease))
				}
				if ok {
					expiry[cellOf[lease]] = now.Add(ttl)
				}
			case op < 7:
				lease := pick()
				settle(lease, f.Complete(lease, "run-"+lease), false)
			case op < 8:
				lease := pick()
				settle(lease, f.Fail(lease, "rejected"), true)
			default:
				*now = now.Add(time.Duration(rng.Intn(16)) * time.Second)
			}
			check()
		}
		// Drain: let every lease lapse, then claim and complete until the
		// farm answers done.
		*now = now.Add(ttl + time.Second)
		for claim() != ClaimDone {
			lease := leases[len(leases)-1]
			settle(lease, f.Complete(lease, "run-"+lease), false)
			check()
		}
		for i, k := range settled {
			if k != 1 {
				fail("cell %d settled %d times", i, k)
			}
		}
	}
}
