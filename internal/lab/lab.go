// Package lab is the persistent experiment archive and analysis layer: it
// stores completed experiment runs on disk as content-addressed records,
// queries them back, and turns run sets into the paper-style comparative
// artifacts — seed-paired quantile summaries, A/B comparison reports with
// CDF plots, and baseline regression gates.
//
// Storage model. An Archive is a directory; each run lives under
// runs/<id>/ as a manifest.json (metadata, aggregates, the completion-time
// CDF) plus a record.jsonl payload (one JSON line per completion, series
// sample, and annotation). The id is a deterministic hash of the run's
// normalized configuration, scenario digest, seed, and code version
// (Key), so re-archiving an identical run dedupes to the existing record
// while any config change lands under a fresh id. The manifest carries a
// SHA-256 of the payload and its own key inputs, so Load detects both
// payload truncation/corruption and manifest tampering instead of
// silently returning bad data.
//
// Analysis model. Select filters runs; Summarize pools a run set into one
// quantile summary; Compare diffs two run sets (protocol vs protocol,
// commit vs commit) with per-quantile deltas, seed-paired medians, and a
// markdown report reusing the trace package's CDF plotting; Baseline
// persists per-group metric values and Gate fails loudly when a metric
// regresses beyond its tolerance — the repository's bench history
// accumulates through exactly this path (see .github/workflows/ci.yml).
//
// Everything the package writes is deterministic for a deterministic
// simulation, except the informational CreatedAt manifest field, which is
// excluded from hashing and from report output.
package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"runtime/debug"

	"bulletprime/internal/obs"
	"bulletprime/internal/trace"
)

// Meta is one archived run's manifest: identity, the hashed key inputs,
// and the aggregates every listing and comparison reads without touching
// the payload.
type Meta struct {
	// ID is the run's content address: Key over (Config, Scenario, Seed,
	// Version).
	ID string `json:"id"`

	// Key inputs. Config is the canonical normalized-configuration JSON
	// produced by the recording façade; Scenario is the scenario digest
	// ("" when the run had no scenario); Version is the code version the
	// run was produced by.
	Config   json.RawMessage `json:"config"`
	Scenario string          `json:"scenario,omitempty"`
	Seed     int64           `json:"seed"`
	Version  string          `json:"version"`

	// Denormalized config columns for listing and filtering.
	Protocol     string  `json:"protocol"`
	Network      string  `json:"network"`
	Nodes        int     `json:"nodes"`
	FileBytes    float64 `json:"file_bytes"`
	ScenarioName string  `json:"scenario_name,omitempty"`

	// Outcome aggregates.
	Finished        bool               `json:"finished"`
	Elapsed         float64            `json:"elapsed"`
	ControlOverhead float64            `json:"control_overhead"`
	Completions     int                `json:"completions"`
	Samples         int                `json:"samples"`
	Quantiles       map[string]float64 `json:"quantiles"`
	// CDF is the completion-time distribution (seconds), the unit of every
	// comparison; persisted bit-for-bit through trace.CDF's JSON form.
	CDF *trace.CDF `json:"cdf"`

	// RecordSHA is the SHA-256 of record.jsonl; Load verifies it.
	RecordSHA string `json:"record_sha"`
	// CreatedAt (RFC 3339 UTC) is informational only: excluded from the
	// hash, never printed in deterministic reports.
	CreatedAt string `json:"created_at"`
}

// Sample is one tick of a run's metric stream: what an observer receives
// live, what Result.Series holds, and — through its JSON form — one sample
// line of an archived record. It is declared here once; the façade's Sample
// is this type.
type Sample struct {
	// Time is the virtual clock in seconds.
	Time float64 `json:"time"`
	// Completed counts receivers that have finished; Receivers is the
	// total expected (session sources excluded).
	Completed int `json:"completed"`
	Receivers int `json:"receivers"`
	// GoodputBps is the overlay's instantaneous aggregate delivered data
	// rate in bytes per second, measured over the last sample window.
	GoodputBps float64 `json:"goodput_bps"`
	// ControlBytes and DataBytes are cumulative delivered wire bytes.
	ControlBytes float64 `json:"control_bytes"`
	DataBytes    float64 `json:"data_bytes"`
	// DuplicateBlocks counts blocks delivered to nodes that already held
	// them; DuplicateBytes ≈ DuplicateBlocks × BlockSize, and UsefulBytes
	// is DataBytes minus that waste.
	DuplicateBlocks int     `json:"duplicate_blocks"`
	DuplicateBytes  float64 `json:"duplicate_bytes"`
	UsefulBytes     float64 `json:"useful_bytes"`
	// Live-streaming fields, populated only on streaming runs: viewer lag
	// behind the live edge (median and worst, seconds), viewers currently
	// rebuffering, cumulative rebuffer events, and aggregate viewer goodput
	// (DESIGN.md §11). omitempty keeps every one-shot record's payload (and
	// thus its content hash) byte-stable.
	StreamLagP50     float64 `json:"stream_lag_p50,omitempty"`
	StreamLagMax     float64 `json:"stream_lag_max,omitempty"`
	Rebuffering      int     `json:"rebuffering,omitempty"`
	RebufferEvents   int     `json:"rebuffer_events,omitempty"`
	StreamGoodputBps float64 `json:"stream_goodput_bps,omitempty"`
	// Testbed transport gauges, populated only on real-socket runs: measured
	// per-pair RTT (median and worst across active pairs, virtual seconds),
	// bytes sent but not yet acknowledged, and the cumulative retransmission
	// and injected-loss counters (DESIGN.md §10, §12); omitempty for the
	// same hash-stability reason.
	TestbedRTTp50        float64 `json:"testbed_rtt_p50,omitempty"`
	TestbedRTTMax        float64 `json:"testbed_rtt_max,omitempty"`
	TestbedUnackedBytes  float64 `json:"testbed_unacked_bytes,omitempty"`
	TestbedRetransmits   int     `json:"testbed_retransmits,omitempty"`
	TestbedInjectedDrops int     `json:"testbed_injected_drops,omitempty"`
	// Annotations lists the scenario events that fired since the previous
	// sample. It is live-only: a record keeps a run's annotations as lines
	// of their own, so it is not part of a sample's JSON form — record.jsonl,
	// RecordSHA and every archive id are what they were before the field
	// existed.
	Annotations []Annotation `json:"-"`
	// Layers is the run's cumulative layer work at the sample instant
	// (DESIGN.md §12). Like Annotations it is live-only: archived and
	// reloaded samples hold zero.
	Layers obs.LayerCounters `json:"-"`
}

// Annotation is a timestamped timeline marker: a scenario event firing, a
// flash-crowd wave starting, a node failing.
type Annotation struct {
	// At is the virtual time of the event in seconds.
	At float64 `json:"at"`
	// Text is the human-readable event description.
	Text string `json:"text"`
}

// Run is one archived run: manifest plus the full payload.
type Run struct {
	Meta            Meta
	CompletionTimes map[int]float64
	Series          []Sample
	Annotations     []Annotation
}

// CDF returns the run's completion-time distribution, building it from
// CompletionTimes when the manifest doesn't carry one yet (a Run being
// assembled for Put).
func (r *Run) CDF() *trace.CDF {
	if r.Meta.CDF != nil {
		return r.Meta.CDF
	}
	c := &trace.CDF{}
	for _, t := range r.CompletionTimes {
		c.Add(t)
	}
	c.Quantile(0) // sort eagerly so shared reads stay race-free
	return c
}

// Key computes a run's content address: a SHA-256 over the canonical
// config JSON, scenario digest, seed, and code version, truncated to 16
// hex characters for readable ids. Identical inputs always produce the
// same id; any differing input produces a different one. Config JSON is
// compacted before hashing, so the whitespace changes manifests pick up
// through indented re-encoding never change the key.
func Key(config []byte, scenarioDigest string, seed int64, version string) string {
	var compact bytes.Buffer
	if err := json.Compact(&compact, config); err == nil {
		config = compact.Bytes()
	}
	h := sha256.New()
	// Length-prefix every field so concatenations cannot collide.
	var n [8]byte
	writeField := func(b []byte) {
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	writeField(config)
	writeField([]byte(scenarioDigest))
	binary.BigEndian.PutUint64(n[:], uint64(seed))
	h.Write(n[:])
	writeField([]byte(version))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Digest hashes an arbitrary blob (e.g. a marshalled scenario) to the
// same short-hex form Key uses for ids.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

// buildVersion resolves the running binary's code version: the VCS
// revision baked in by the Go toolchain when available, else "dev".
// Archives opened in tests and local toolchain builds record "dev";
// SetVersion overrides for commit-vs-commit workflows.
func buildVersion() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "dev"
}

// quantileSummary computes the named aggregate quantiles every manifest
// carries.
func quantileSummary(c *trace.CDF) map[string]float64 {
	if c == nil || c.N() == 0 {
		return map[string]float64{}
	}
	return map[string]float64{
		"best":   c.Quantile(0),
		"p25":    c.Quantile(0.25),
		"median": c.Quantile(0.5),
		"p75":    c.Quantile(0.75),
		"p90":    c.Quantile(0.9),
		"worst":  c.Quantile(1),
		"mean":   c.Mean(),
	}
}
