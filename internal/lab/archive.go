package lab

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Archive is a directory of content-addressed run records. One Archive
// value may be shared by concurrent writers (parallel sweep workers): Put
// serializes in-process, and the write-to-temp + rename protocol keeps
// records atomic even across processes sharing the directory.
type Archive struct {
	mu      sync.Mutex
	root    string
	version string
}

// Open creates (if needed) and opens an archive rooted at dir.
func Open(dir string) (*Archive, error) {
	if dir == "" {
		return nil, fmt.Errorf("lab: empty archive root")
	}
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("lab: opening archive: %w", err)
	}
	return &Archive{root: dir, version: buildVersion()}, nil
}

// Root returns the archive's directory.
func (a *Archive) Root() string { return a.root }

// Version returns the code version stamped onto newly recorded runs.
func (a *Archive) Version() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.version
}

// SetVersion overrides the recorded code version (default: the binary's
// VCS revision, or "dev"), for commit-vs-commit comparison workflows.
func (a *Archive) SetVersion(v string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.version = v
}

func (a *Archive) runsDir() string         { return filepath.Join(a.root, "runs") }
func (a *Archive) runDir(id string) string { return filepath.Join(a.runsDir(), id) }

// Has reports whether the archive holds a record under id: the check Put
// makes before it writes, so a caller that skips exactly when Has is true
// skips exactly the runs Put would dedupe.
func (a *Archive) Has(id string) bool {
	_, err := os.Stat(filepath.Join(a.runDir(id), "manifest.json"))
	return err == nil
}

func (a *Archive) lockPath(id string) string {
	return filepath.Join(a.runsDir(), ".lock-"+id)
}

// staleLockAge is how old an orphaned lockfile must be before another
// writer may break it: long enough that no live Put holds a lock that
// long (the critical section is two small file writes and a rename),
// short enough that a crashed farm worker doesn't wedge its cell's id
// until a human intervenes.
const staleLockAge = 30 * time.Second

// lockWait bounds how long Put spins waiting for a contended lock before
// giving up; concurrent writers of the SAME id finish in milliseconds,
// so hitting this means something is genuinely wrong.
const lockWait = time.Minute

// lockRun takes the cross-process per-id commit lock: an O_CREAT|O_EXCL
// lockfile next to runs/<id>. The in-process Archive mutex cannot guard
// against a second *process* (farm workers sharing one archive
// directory over a filesystem), so the exclusive-create syscall is the
// arbiter: exactly one writer per id wins; losers poll until the lock
// clears — normally because the winner landed the manifest, which the
// caller re-checks for dedupe — and break locks whose mtime says the
// holder died mid-commit.
func (a *Archive) lockRun(id string) (release func(), err error) {
	path := a.lockPath(id)
	deadline := time.Now().Add(lockWait)
	for {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			fmt.Fprintf(f, "pid %d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("lab: locking record %s: %w", id, err)
		}
		if fi, statErr := os.Stat(path); statErr == nil && time.Since(fi.ModTime()) > staleLockAge {
			// The holder is gone (a crash between lock and rename leaves
			// the temp dir for MkdirTemp cleanup and this file forever).
			// Removal races between breakers are fine: everyone loops back
			// to the exclusive create and exactly one wins.
			os.Remove(path)
			continue
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("lab: record %s: lock held for over %v by another writer", id, lockWait)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// recordLine is one record.jsonl entry; Kind selects which of the other
// fields are meaningful.
type recordLine struct {
	Kind   string  `json:"kind"` // "completion" | "sample" | "annotation"
	Node   int     `json:"node,omitempty"`
	At     float64 `json:"at,omitempty"`
	Text   string  `json:"text,omitempty"`
	Sample *Sample `json:"sample,omitempty"`
}

// encodeRecord renders the run payload deterministically: completions
// sorted by node id, then series samples in time order, then annotations.
func encodeRecord(run *Run) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	nodes := make([]int, 0, len(run.CompletionTimes))
	for n := range run.CompletionTimes {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		if err := enc.Encode(recordLine{Kind: "completion", Node: n, At: run.CompletionTimes[n]}); err != nil {
			return nil, err
		}
	}
	for i := range run.Series {
		if err := enc.Encode(recordLine{Kind: "sample", Sample: &run.Series[i]}); err != nil {
			return nil, err
		}
	}
	for _, an := range run.Annotations {
		if err := enc.Encode(recordLine{Kind: "annotation", At: an.At, Text: an.Text}); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodeRecord parses a record.jsonl payload back into the run's mutable
// parts. Any malformed line — including a final line truncated by a
// partial write — is an error naming the line, never a silent skip.
func decodeRecord(data []byte, run *Run) error {
	run.CompletionTimes = make(map[int]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var l recordLine
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&l); err != nil {
			return fmt.Errorf("record line %d corrupt: %w", lineNo, err)
		}
		switch l.Kind {
		case "completion":
			run.CompletionTimes[l.Node] = l.At
		case "sample":
			if l.Sample == nil {
				return fmt.Errorf("record line %d: sample entry without sample body", lineNo)
			}
			run.Series = append(run.Series, *l.Sample)
		case "annotation":
			run.Annotations = append(run.Annotations, Annotation{At: l.At, Text: l.Text})
		default:
			return fmt.Errorf("record line %d: unknown kind %q", lineNo, l.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading record: %w", err)
	}
	return nil
}

// Put archives a run. The run's Meta must carry the key inputs (Config,
// Scenario, Seed; Version defaults to the archive's); Put computes the id,
// aggregates, and payload hash, then writes runs/<id>/ atomically. A run
// whose id already exists dedupes: Put returns (id, false, nil) without
// touching the existing record. The returned bool reports whether a new
// record was created.
func (a *Archive) Put(run *Run) (id string, created bool, err error) {
	return a.put(run, true)
}

// putUnlocked commits without taking the cross-process lock; it exists
// only so tests can play the "crashed holder" role deterministically.
func (a *Archive) putUnlocked(run *Run) (string, bool, error) {
	return a.put(run, false)
}

func (a *Archive) put(run *Run, lock bool) (id string, created bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := &run.Meta
	if len(m.Config) == 0 {
		return "", false, fmt.Errorf("lab: Put without Meta.Config")
	}
	if m.Version == "" {
		m.Version = a.version
	}
	m.ID = Key(m.Config, m.Scenario, m.Seed, m.Version)
	if m.CDF == nil || m.CDF.N() != len(run.CompletionTimes) {
		m.CDF = run.CDF()
	}
	m.Quantiles = quantileSummary(m.CDF)
	m.Completions = len(run.CompletionTimes)
	m.Samples = len(run.Series)

	if a.Has(m.ID) {
		return m.ID, false, nil
	}

	payload, err := encodeRecord(run)
	if err != nil {
		return "", false, fmt.Errorf("lab: encoding record %s: %w", m.ID, err)
	}
	sum := sha256.Sum256(payload)
	m.RecordSHA = hex.EncodeToString(sum[:])
	m.CreatedAt = time.Now().UTC().Format(time.RFC3339)

	manifest, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", false, fmt.Errorf("lab: encoding manifest %s: %w", m.ID, err)
	}
	// Cross-process guard: concurrent farm workers sharing this directory
	// serialize per-id on an exclusive-create lockfile, then re-check for
	// a record the previous holder landed (the common dedupe path).
	if lock {
		release, err := a.lockRun(m.ID)
		if err != nil {
			return "", false, err
		}
		defer release()
		if a.Has(m.ID) {
			return m.ID, false, nil
		}
	}
	tmp, err := os.MkdirTemp(a.runsDir(), ".put-")
	if err != nil {
		return "", false, fmt.Errorf("lab: %w", err)
	}
	defer os.RemoveAll(tmp)
	if err := os.WriteFile(filepath.Join(tmp, "record.jsonl"), payload, 0o644); err != nil {
		return "", false, fmt.Errorf("lab: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "manifest.json"), append(manifest, '\n'), 0o644); err != nil {
		return "", false, fmt.Errorf("lab: %w", err)
	}
	if err := os.Rename(tmp, a.runDir(m.ID)); err != nil {
		// Belt under the lock's suspenders: a writer that held a broken
		// stale lock may still land the same id first; its payload is
		// byte-equivalent by construction (the id keys everything the
		// record contains; only the informational CreatedAt can differ),
		// so dedupe.
		if a.Has(m.ID) {
			return m.ID, false, nil
		}
		return "", false, fmt.Errorf("lab: committing record %s: %w", m.ID, err)
	}
	return m.ID, true, nil
}

// loadMeta reads and validates one manifest.
func (a *Archive) loadMeta(id string) (*Meta, error) {
	data, err := os.ReadFile(filepath.Join(a.runDir(id), "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("lab: run %s: %w", id, err)
	}
	return decodeManifest(data, id)
}

// decodeManifest parses the manifest bytes of run id and verifies them: the
// manifest must claim id, and its key inputs must hash to it.
func decodeManifest(data []byte, id string) (*Meta, error) {
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("lab: run %s: corrupt manifest: %w", id, err)
	}
	if m.ID != id {
		return nil, fmt.Errorf("lab: run %s: manifest claims id %s", id, m.ID)
	}
	if want := Key(m.Config, m.Scenario, m.Seed, m.Version); want != id {
		return nil, fmt.Errorf("lab: run %s: manifest/hash mismatch (key inputs hash to %s)", id, want)
	}
	return &m, nil
}

// List returns every archived run's manifest, sorted by protocol, network,
// scenario, seed, then id — a deterministic catalog order. A corrupt
// manifest is an error naming the run, not a silent omission.
func (a *Archive) List() ([]Meta, error) {
	entries, err := os.ReadDir(a.runsDir())
	if err != nil {
		return nil, fmt.Errorf("lab: listing archive: %w", err)
	}
	var out []Meta
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		m, err := a.loadMeta(e.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if a.Network != b.Network {
			return a.Network < b.Network
		}
		if a.ScenarioName != b.ScenarioName {
			return a.ScenarioName < b.ScenarioName
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.ID < b.ID
	})
	return out, nil
}

// Load reads one run back in full, verifying the manifest's key hash and
// the payload's SHA-256 before decoding; corruption is always reported.
func (a *Archive) Load(id string) (*Run, error) {
	m, err := a.loadMeta(id)
	if err != nil {
		return nil, err
	}
	payload, err := os.ReadFile(filepath.Join(a.runDir(id), "record.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("lab: run %s: %w", id, err)
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != m.RecordSHA {
		return nil, fmt.Errorf("lab: run %s: record/manifest hash mismatch (record sha %s, manifest says %s)",
			id, got[:16], short(m.RecordSHA))
	}
	run := &Run{Meta: *m}
	if err := decodeRecord(payload, run); err != nil {
		return nil, fmt.Errorf("lab: run %s: %w", id, err)
	}
	if len(run.CompletionTimes) != m.Completions {
		return nil, fmt.Errorf("lab: run %s: record holds %d completions, manifest says %d",
			id, len(run.CompletionTimes), m.Completions)
	}
	return run, nil
}

func short(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	if s == "" {
		return "(none)"
	}
	return s
}

// Filter selects archived runs; zero-valued fields match everything.
type Filter struct {
	// ID matches a single run by id prefix (unique prefixes suffice).
	ID string
	// Protocol, Network, Version, and Scenario (digest or scenario name)
	// match exactly.
	Protocol string
	Network  string
	Version  string
	Scenario string
	// Seeds restricts to the listed seeds; empty means any.
	Seeds []int64
}

// Match reports whether one manifest satisfies the filter.
func (f Filter) Match(m Meta) bool {
	if f.ID != "" && !strings.HasPrefix(m.ID, f.ID) {
		return false
	}
	if f.Protocol != "" && m.Protocol != f.Protocol {
		return false
	}
	if f.Network != "" && m.Network != f.Network {
		return false
	}
	if f.Version != "" && m.Version != f.Version {
		return false
	}
	if f.Scenario != "" && m.Scenario != f.Scenario && m.ScenarioName != f.Scenario {
		return false
	}
	if len(f.Seeds) > 0 {
		ok := false
		for _, s := range f.Seeds {
			if m.Seed == s {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// ParseFilter parses the CLI selector syntax: comma-separated key=value
// pairs over the keys id, protocol, network, version, scenario, and seed
// (repeatable, or a single seeds=1+2+3 list). The empty string is the
// match-all filter.
func ParseFilter(s string) (Filter, error) {
	var f Filter
	if strings.TrimSpace(s) == "" {
		return f, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return f, fmt.Errorf("lab: selector %q is not key=value", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "id":
			f.ID = v
		case "protocol":
			f.Protocol = v
		case "network":
			f.Network = v
		case "version":
			f.Version = v
		case "scenario":
			f.Scenario = v
		case "seed", "seeds":
			for _, sv := range strings.Split(v, "+") {
				n, err := strconv.ParseInt(strings.TrimSpace(sv), 10, 64)
				if err != nil {
					return f, fmt.Errorf("lab: selector seed %q: %w", sv, err)
				}
				f.Seeds = append(f.Seeds, n)
			}
		default:
			return f, fmt.Errorf("lab: unknown selector key %q (want id, protocol, network, version, scenario, seed)", k)
		}
	}
	return f, nil
}

// Select loads every run matching the filter, in List order.
func (a *Archive) Select(f Filter) ([]*Run, error) {
	metas, err := a.List()
	if err != nil {
		return nil, err
	}
	var out []*Run
	for _, m := range metas {
		if !f.Match(m) {
			continue
		}
		run, err := a.Load(m.ID)
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}
