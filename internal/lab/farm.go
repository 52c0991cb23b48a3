package lab

// The distributed experiment farm: a coordinator expands a sweep spec
// into cells, serves them to workers over a small HTTP work-claim
// protocol, and tracks completion; workers execute cells with the
// ordinary session runner and record into a shared content-addressed
// archive. A cell is done when its record exists: a cell's archive id is
// a pure function of its configuration, so a worker that claims a cell the
// archive already holds settles it without running it. That is what makes
// the control plane forgiving: a worker that dies after archiving but
// before reporting, a cell reissued on lease expiry, or a whole farm
// restarted over the same archive all converge on exactly one record per
// cell. The coordinator holds only leases. See DESIGN.md §13.
//
// Protocol (JSON over HTTP, all lease state on the coordinator):
//
//	GET  /spec      → FarmSpec — the run geometry workers execute
//	POST /claim     {"worker":W}           → 200 {"cell":C,"lease":L,"ttl_ms":T}
//	                                       | 204 (nothing claimable now; retry)
//	                                       | 410 (farm complete; worker exits)
//	POST /renew     {"lease":L}            → 200 | 410 (lease no longer valid)
//	POST /complete  {"lease":L,"run_id":R} → 200 | 410
//	POST /fail      {"lease":L,"error":E}  → 200 | 410
//	GET  /status    → FarmStatus
//
// Lease semantics: a claim grants an exclusive lease for TTL; Renew
// extends it. A cell whose lease expires returns to the pending pool and
// is reissued to the next claimer with a fresh lease id — the old lease
// is dead, and any late Complete/Fail on it is answered 410 and ignored
// (the reissued execution owns the cell now; if the late worker already
// archived the run, the reissue finds the record and runs nothing).
// Fail marks a cell permanently failed (a config the runner rejects
// would otherwise bounce between workers forever); a farm with failed
// cells finishes "complete" but unsuccessful.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// RepSeed derives the master seed of repetition rep of a base seed.
// Repetition 0 is the base seed itself, so reps=1 farms and sweeps are
// bit- and id-identical to pre-repetition ones; higher repetitions shift
// into a disjoint high range that the small hand-picked seeds of sweep
// specs never collide with. The derivation is part of every repeated
// cell's identity — changing it would re-key archived repetition runs.
func RepSeed(seed int64, rep int) int64 {
	if rep <= 0 {
		return seed
	}
	return seed + int64(rep)<<32
}

// FarmSpec is the sweep a farm executes: the cross product of
// Protocols × Networks × Seeds × Reps over one run geometry. It is
// serialized verbatim to workers, so every field must be plain data.
type FarmSpec struct {
	Nodes     int      `json:"nodes"`
	FileMB    float64  `json:"file_mb"`
	Protocols []string `json:"protocols"`
	Networks  []string `json:"networks"`
	Seeds     []int64  `json:"seeds"`
	// Reps repeats every (protocol, network, seed) cell with derived
	// seeds (RepSeed); <= 1 means one repetition.
	Reps     int     `json:"reps,omitempty"`
	Deadline float64 `json:"deadline,omitempty"`
}

// Validate rejects specs that cannot expand to at least one cell.
func (s *FarmSpec) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("lab: farm spec needs nodes >= 2 (got %d)", s.Nodes)
	}
	if s.FileMB <= 0 {
		return fmt.Errorf("lab: farm spec needs file_mb > 0 (got %g)", s.FileMB)
	}
	if len(s.Protocols) == 0 || len(s.Networks) == 0 || len(s.Seeds) == 0 {
		return fmt.Errorf("lab: farm spec needs at least one protocol, network, and seed")
	}
	return nil
}

// Cell is one unit of farm work: a fully-specified run. Seed is already
// repetition-derived; Rep records which repetition it came from.
type Cell struct {
	Index    int    `json:"index"`
	Protocol string `json:"protocol"`
	Network  string `json:"network"`
	Seed     int64  `json:"seed"`
	Rep      int    `json:"rep"`
}

// Cross visits the cross product of a sweep — protocols × networks × seeds
// × reps — in protocol-major, then network, seed, rep order: the one order
// the façade's sweeps, the farm's cells and the archive's listings agree
// on. Protocols and networks are counts, visited by position, so callers
// keep their own name types; seed is the listed seed and runSeed the
// RepSeed-derived one the cell runs with. reps < 1 means one repetition.
func Cross(protocols, networks int, seeds []int64, reps int,
	visit func(index, protocol, network int, seed int64, rep int, runSeed int64)) {
	reps = max(reps, 1)
	index := 0
	for p := 0; p < protocols; p++ {
		for n := 0; n < networks; n++ {
			for _, seed := range seeds {
				for rep := 0; rep < reps; rep++ {
					visit(index, p, n, seed, rep, RepSeed(seed, rep))
					index++
				}
			}
		}
	}
}

// Cells expands the spec into its Cross order.
func (s *FarmSpec) Cells() []Cell {
	var out []Cell
	Cross(len(s.Protocols), len(s.Networks), s.Seeds, s.Reps,
		func(index, p, n int, _ int64, rep int, runSeed int64) {
			out = append(out, Cell{Index: index, Protocol: s.Protocols[p], Network: s.Networks[n], Seed: runSeed, Rep: rep})
		})
	return out
}

// cellPhase is a cell's lifecycle position in the claim store.
type cellPhase int

const (
	cellPending cellPhase = iota
	cellLeased
	cellDone
	cellFailed
)

// cellSlot is the coordinator-side state of one cell.
type cellSlot struct {
	phase   cellPhase
	lease   string
	expiry  time.Time
	runID   string
	failure string
	// reissues counts how many times an expired lease sent this cell
	// back to the pending pool.
	reissues int
}

// Farm is the coordinator's claim store: pure in-memory state machine,
// no I/O. All methods are safe for concurrent use. The clock is
// injectable so lease expiry is unit-testable without sleeping.
type Farm struct {
	mu    sync.Mutex
	spec  FarmSpec
	cells []Cell
	slots []cellSlot
	ttl   time.Duration
	now   func() time.Time
	seq   int
}

// NewFarm builds a claim store over the spec's cells with the given
// lease TTL (<= 0 defaults to 30s).
func NewFarm(spec FarmSpec, ttl time.Duration) (*Farm, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	cells := spec.Cells()
	return &Farm{
		spec:  spec,
		cells: cells,
		slots: make([]cellSlot, len(cells)),
		ttl:   ttl,
		now:   time.Now,
	}, nil
}

// Spec returns the farm's sweep spec.
func (f *Farm) Spec() FarmSpec { return f.spec }

// ClaimVerdict is the outcome of a claim attempt.
type ClaimVerdict int

const (
	// ClaimGranted: the returned cell is leased to the caller.
	ClaimGranted ClaimVerdict = iota
	// ClaimWait: every remaining cell is currently leased; retry later.
	ClaimWait
	// ClaimDone: no cell will ever become claimable again.
	ClaimDone
)

// Claim hands the worker the first claimable cell: pending ones first,
// then any leased cell whose lease has expired (reissued under a fresh
// lease; the previous lease dies).
func (f *Farm) Claim(worker string) (Cell, string, ClaimVerdict) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	claimable, open := -1, false
	for i := range f.slots {
		switch f.slots[i].phase {
		case cellPending:
			if claimable < 0 {
				claimable = i
			}
			open = true
		case cellLeased:
			if now.After(f.slots[i].expiry) {
				if claimable < 0 {
					claimable = i
					f.slots[i].reissues++
				}
			}
			open = true
		}
	}
	if claimable < 0 {
		if open {
			return Cell{}, "", ClaimWait
		}
		return Cell{}, "", ClaimDone
	}
	f.seq++
	lease := fmt.Sprintf("%s-%d-%d", worker, claimable, f.seq)
	re := f.slots[claimable].reissues
	f.slots[claimable] = cellSlot{
		phase:    cellLeased,
		lease:    lease,
		expiry:   now.Add(f.ttl),
		reissues: re,
	}
	return f.cells[claimable], lease, ClaimGranted
}

// findLease resolves a live lease id to its cell index, or -1 when the
// lease is unknown, expired-and-reissued, or already settled.
func (f *Farm) findLease(lease string) int {
	for i := range f.slots {
		if f.slots[i].phase == cellLeased && f.slots[i].lease == lease {
			return i
		}
	}
	return -1
}

// Renew extends a live lease by one TTL; false means the lease is gone
// (the worker must abandon the cell — it may already be reissued).
func (f *Farm) Renew(lease string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.findLease(lease)
	if i < 0 {
		return false
	}
	// An expired-but-not-yet-reissued lease is not renewable: its cell is
	// claimable by anyone, so the renewer has already lost exclusivity.
	if f.now().After(f.slots[i].expiry) {
		return false
	}
	f.slots[i].expiry = f.now().Add(f.ttl)
	return true
}

// Complete settles a leased cell as done, recording the archive id the
// worker stored the run under. False means the lease is gone; the worker
// has nothing left to do either way (its archive write stands and
// dedupes any reissue).
func (f *Farm) Complete(lease, runID string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.findLease(lease)
	if i < 0 || f.now().After(f.slots[i].expiry) {
		return false
	}
	f.slots[i].phase = cellDone
	f.slots[i].runID = runID
	return true
}

// Fail settles a leased cell as permanently failed — for runs the
// session runner rejects deterministically, where reissue would loop
// forever. False means the lease is gone.
func (f *Farm) Fail(lease, reason string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.findLease(lease)
	if i < 0 || f.now().After(f.slots[i].expiry) {
		return false
	}
	f.slots[i].phase = cellFailed
	f.slots[i].failure = reason
	return true
}

// FarmStatus is a progress snapshot.
type FarmStatus struct {
	Total    int `json:"total"`
	Done     int `json:"done"`
	Leased   int `json:"leased"`
	Pending  int `json:"pending"`
	Failed   int `json:"failed"`
	Reissues int `json:"reissues"`
	// Failures lists failed cells as "protocol/network/seed: reason".
	Failures []string `json:"failures,omitempty"`
}

// Complete reports whether no cell remains claimable or in flight.
func (s FarmStatus) Complete() bool { return s.Done+s.Failed == s.Total }

// Status snapshots progress. Leased cells past expiry count as pending
// (they are claimable right now).
func (f *Farm) Status() FarmStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	st := FarmStatus{Total: len(f.cells)}
	for i := range f.slots {
		s := &f.slots[i]
		st.Reissues += s.reissues
		switch s.phase {
		case cellPending:
			st.Pending++
		case cellLeased:
			if now.After(s.expiry) {
				st.Pending++
			} else {
				st.Leased++
			}
		case cellDone:
			st.Done++
		case cellFailed:
			st.Failed++
			c := f.cells[i]
			st.Failures = append(st.Failures,
				fmt.Sprintf("%s/%s/%d: %s", c.Protocol, c.Network, c.Seed, s.failure))
		}
	}
	sort.Strings(st.Failures)
	return st
}

// RunIDs returns the archive ids of completed cells, sorted — the set
// the farm's acceptance check compares against the archive listing.
func (f *Farm) RunIDs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for i := range f.slots {
		if f.slots[i].phase == cellDone && f.slots[i].runID != "" {
			out = append(out, f.slots[i].runID)
		}
	}
	sort.Strings(out)
	return out
}

// FarmServer serves the claim protocol over HTTP.
type FarmServer struct {
	Farm *Farm
}

type claimRequest struct {
	Worker string `json:"worker"`
}

type claimResponse struct {
	Cell  Cell   `json:"cell"`
	Lease string `json:"lease"`
	TTLms int64  `json:"ttl_ms"`
}

type leaseRequest struct {
	Lease string `json:"lease"`
	RunID string `json:"run_id,omitempty"`
	Error string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// maxBody bounds every body the claim protocol decodes, in either
// direction: no request or response it defines comes near 1 MiB.
const maxBody = 1 << 20

func decodeBody(r io.Reader, v any) error {
	return json.NewDecoder(io.LimitReader(r, maxBody)).Decode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := decodeBody(r.Body, v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *FarmServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/spec":
		writeJSON(w, s.Farm.Spec())
	case "/status":
		writeJSON(w, s.Farm.Status())
	case "/claim":
		var req claimRequest
		if !readJSON(w, r, &req) {
			return
		}
		if req.Worker == "" {
			http.Error(w, "claim without worker name", http.StatusBadRequest)
			return
		}
		cell, lease, verdict := s.Farm.Claim(req.Worker)
		switch verdict {
		case ClaimGranted:
			writeJSON(w, claimResponse{Cell: cell, Lease: lease, TTLms: s.Farm.ttl.Milliseconds()})
		case ClaimWait:
			w.WriteHeader(http.StatusNoContent)
		case ClaimDone:
			w.WriteHeader(http.StatusGone)
		}
	case "/renew":
		var req leaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		if !s.Farm.Renew(req.Lease) {
			w.WriteHeader(http.StatusGone)
		}
	case "/complete":
		var req leaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		if !s.Farm.Complete(req.Lease, req.RunID) {
			w.WriteHeader(http.StatusGone)
		}
	case "/fail":
		var req leaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		if !s.Farm.Fail(req.Lease, req.Error) {
			w.WriteHeader(http.StatusGone)
		}
	default:
		http.NotFound(w, r)
	}
}

// FarmClient is a worker's (or status query's) view of a coordinator.
type FarmClient struct {
	// Base is the coordinator URL, e.g. "http://127.0.0.1:8844".
	Base string
	// Worker names this client in claims and status output.
	Worker string
	// HTTP defaults to a client with a 10s request timeout.
	HTTP *http.Client
}

func (c *FarmClient) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (c *FarmClient) post(path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("lab: farm client: %w", err)
	}
	r, err := c.client().Post(c.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("lab: farm client %s: %w", path, err)
	}
	defer r.Body.Close()
	if r.StatusCode == http.StatusOK && resp != nil {
		if err := decodeBody(r.Body, resp); err != nil {
			return 0, fmt.Errorf("lab: farm client %s: decoding response: %w", path, err)
		}
	}
	return r.StatusCode, nil
}

// get fetches one JSON document from the coordinator.
func (c *FarmClient) get(path string, v any) error {
	r, err := c.client().Get(c.Base + path)
	if err != nil {
		return fmt.Errorf("lab: farm client %s: %w", path, err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("lab: farm client %s: HTTP %d", path, r.StatusCode)
	}
	if err := decodeBody(r.Body, v); err != nil {
		return fmt.Errorf("lab: farm client %s: %w", path, err)
	}
	return nil
}

// Spec fetches the coordinator's sweep spec.
func (c *FarmClient) Spec() (FarmSpec, error) {
	var spec FarmSpec
	err := c.get("/spec", &spec)
	return spec, err
}

// Status fetches a progress snapshot.
func (c *FarmClient) Status() (FarmStatus, error) {
	var st FarmStatus
	err := c.get("/status", &st)
	return st, err
}

// Claim asks for a cell. The lease and TTL are only meaningful when the
// verdict is ClaimGranted.
func (c *FarmClient) Claim() (Cell, string, time.Duration, ClaimVerdict, error) {
	var resp claimResponse
	code, err := c.post("/claim", claimRequest{Worker: c.Worker}, &resp)
	if err != nil {
		return Cell{}, "", 0, ClaimWait, err
	}
	switch code {
	case http.StatusOK:
		return resp.Cell, resp.Lease, time.Duration(resp.TTLms) * time.Millisecond, ClaimGranted, nil
	case http.StatusNoContent:
		return Cell{}, "", 0, ClaimWait, nil
	case http.StatusGone:
		return Cell{}, "", 0, ClaimDone, nil
	}
	return Cell{}, "", 0, ClaimWait, fmt.Errorf("lab: farm client /claim: HTTP %d", code)
}

// Renew extends the lease; false means it is gone and the worker must
// abandon the cell.
func (c *FarmClient) Renew(lease string) (bool, error) {
	code, err := c.post("/renew", leaseRequest{Lease: lease}, nil)
	if err != nil {
		return false, err
	}
	return code == http.StatusOK, nil
}

// Complete settles the lease with the archived run id.
func (c *FarmClient) Complete(lease, runID string) (bool, error) {
	code, err := c.post("/complete", leaseRequest{Lease: lease, RunID: runID}, nil)
	if err != nil {
		return false, err
	}
	return code == http.StatusOK, nil
}

// Fail settles the lease as permanently failed.
func (c *FarmClient) Fail(lease, reason string) (bool, error) {
	code, err := c.post("/fail", leaseRequest{Lease: lease, Error: reason}, nil)
	if err != nil {
		return false, err
	}
	return code == http.StatusOK, nil
}
