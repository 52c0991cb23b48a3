package bulletprime

import (
	"encoding/json"
	"fmt"

	"bulletprime/internal/lab"
)

// Archive is a persistent, content-addressed experiment archive: a
// directory where completed runs are stored as manifest + JSONL records
// keyed by a deterministic hash of (normalized config, scenario digest,
// seed, code version), so identical reruns dedupe and changed configs
// never collide. Set RunConfig.Archive to record every completed run and
// sweep cell automatically, or call Experiment.Record explicitly; query
// and diff the results with Archive.Select, CompareArchived, and
// bulletctl's ls/show/compare/report/gate subcommands. See DESIGN.md §7.
type Archive = lab.Archive

// ArchivedRun is one run loaded back from an Archive: manifest metadata
// plus the completion times, time-series samples, and annotations.
type ArchivedRun = lab.Run

// ArchiveFilter selects archived runs by id prefix, protocol, network,
// seed set, scenario, or code version; the zero value matches everything.
type ArchiveFilter = lab.Filter

// Comparison is an A/B diff of two archived run sets: pooled per-quantile
// deltas, seed-paired medians, and a paper-style markdown Report.
type Comparison = lab.Comparison

// OpenArchive creates (if needed) and opens an experiment archive rooted
// at dir.
func OpenArchive(dir string) (*Archive, error) { return lab.Open(dir) }

// CompareArchived diffs two archived run sets — protocol vs protocol,
// commit vs commit — under the given labels.
func CompareArchived(labelA string, a []*ArchivedRun, labelB string, b []*ArchivedRun) *Comparison {
	return lab.Compare(labelA, a, labelB, b)
}

// ArchiveReport renders a run set as a markdown report: one pooled
// quantile-summary row per protocol/network/scenario group plus their
// download-time CDF plots.
func ArchiveReport(runs []*ArchivedRun) string { return lab.Report(runs) }

// configFingerprint is the canonical form of a normalized RunConfig that
// the archive hashes into a run's identity. Execution-only knobs
// (Parallel, the Archive pointer itself) are excluded: they cannot change
// a run's results. SampleEvery holds the run's *effective* recorded
// series cadence — -1 when the run persisted no time-series (the one-shot
// Run/Sweep wrappers, or a disabled series), the possibly observer-refined
// cadence otherwise — so two records whose payloads differ never share an
// id, and identical reruns through the same path always dedupe. Field
// order is fixed — changing it would re-key every archived run.
type configFingerprint struct {
	Protocol          Protocol        `json:"protocol"`
	Nodes             int             `json:"nodes"`
	FileBytes         float64         `json:"file_bytes"`
	BlockSize         float64         `json:"block_size"`
	Network           NetworkPreset   `json:"network"`
	DynamicBandwidth  bool            `json:"dynamic_bandwidth,omitempty"`
	Scenario          string          `json:"scenario,omitempty"` // digest
	ScenarioName      string          `json:"scenario_name,omitempty"`
	Seed              int64           `json:"seed"`
	Deadline          float64         `json:"deadline"`
	SampleEvery       float64         `json:"sample_every"`
	Strategy          RequestStrategy `json:"strategy"`
	StaticPeers       int             `json:"static_peers,omitempty"`
	StaticOutstanding int             `json:"static_outstanding,omitempty"`
	Encoded           bool            `json:"encoded,omitempty"`
	// Engine and Shards shape results (per-shard RNG streams), so they are
	// part of the identity; ShardWorkers is an execution knob and is not.
	// omitempty keeps every pre-sharding sequential record's id stable.
	Engine EngineMode `json:"engine,omitempty"`
	Shards int        `json:"shards,omitempty"`
	// Testbed is a real-socket run's options, whose JSON form keeps the
	// result-shaping knobs and drops the address ones (execution details);
	// nil for emulated runs, keeping every pre-testbed record's id stable.
	Testbed *TestbedOptions `json:"testbed,omitempty"`
	// Stream is a streaming run's normalized pacing knobs (so defaults hash
	// the same as their explicit values); nil for one-shot runs, keeping
	// every pre-streaming record's id stable — and making a streamed run's
	// id always differ from the one-shot run of the same derived FileBytes.
	Stream *StreamOptions `json:"stream,omitempty"`
}

// fingerprint renders a normalized config's canonical JSON plus the
// scenario digest and name; seriesEvery is the effective recorded series
// cadence (see configFingerprint.SampleEvery).
func fingerprint(cfg RunConfig, seriesEvery float64) (configJSON []byte, scenarioDigest, scenarioName string, err error) {
	if cfg.Scenario != nil {
		blob, err := json.Marshal(cfg.Scenario)
		if err != nil {
			return nil, "", "", fmt.Errorf("bulletprime: hashing scenario: %w", err)
		}
		scenarioDigest = lab.Digest(blob)
		scenarioName = cfg.Scenario.Name
	}
	fp := configFingerprint{
		Protocol:          cfg.Protocol,
		Nodes:             cfg.Nodes,
		FileBytes:         cfg.FileBytes,
		BlockSize:         cfg.BlockSize,
		Network:           cfg.Network,
		DynamicBandwidth:  cfg.DynamicBandwidth,
		Scenario:          scenarioDigest,
		ScenarioName:      scenarioName,
		Seed:              cfg.Seed,
		Deadline:          cfg.Deadline,
		SampleEvery:       seriesEvery,
		Strategy:          cfg.Strategy,
		StaticPeers:       cfg.StaticPeers,
		StaticOutstanding: cfg.StaticOutstanding,
		Encoded:           cfg.Encoded,
		Engine:            cfg.Engine,
		Shards:            cfg.Shards,
		Testbed:           cfg.Testbed, // non-nil exactly on NetworkTestbedUDP
		Stream:            cfg.Stream,
	}
	configJSON, err = json.Marshal(fp)
	if err != nil {
		return nil, "", "", fmt.Errorf("bulletprime: hashing config: %w", err)
	}
	return configJSON, scenarioDigest, scenarioName, nil
}

// recordRun archives one completed run under its content address.
func recordRun(a *Archive, cfg RunConfig, res *Result, seriesEvery float64) (string, error) {
	configJSON, digest, scenarioName, err := fingerprint(cfg, seriesEvery)
	if err != nil {
		return "", err
	}
	run := &lab.Run{
		Meta: lab.Meta{
			Config:          configJSON,
			Scenario:        digest,
			Seed:            cfg.Seed,
			Protocol:        string(cfg.Protocol),
			Network:         string(cfg.Network),
			Nodes:           cfg.Nodes,
			FileBytes:       cfg.FileBytes,
			ScenarioName:    scenarioName,
			Finished:        res.Finished,
			Elapsed:         res.Elapsed,
			ControlOverhead: res.ControlOverhead,
		},
		CompletionTimes: res.CompletionTimes,
		Series:          res.Series,
		Annotations:     res.Annotations,
	}
	id, _, err := a.Put(run)
	return id, err
}

// Record archives the session's completed run into a and returns the run
// id. It is an error to Record before the run ends or to archive a
// cancelled (partial) run; re-recording an identical run dedupes to the
// same id. Sessions whose RunConfig.Archive is set record automatically.
func (e *Experiment) Record(a *Archive) (string, error) {
	if a == nil {
		return "", fmt.Errorf("bulletprime: Record into a nil archive")
	}
	select {
	case <-e.done:
	default:
		return "", fmt.Errorf("bulletprime: Record before the run completed")
	}
	if e.res.Cancelled {
		return "", fmt.Errorf("bulletprime: refusing to archive a cancelled (partial) run")
	}
	return recordRun(a, e.cfg, e.res, e.seriesEvery)
}

// RunID returns the archive id the session's automatic record landed
// under: empty until the run ends, and empty for runs without
// RunConfig.Archive or cancelled runs (which are never archived).
func (e *Experiment) RunID() string {
	select {
	case <-e.done:
		return e.runID
	default:
		return ""
	}
}
