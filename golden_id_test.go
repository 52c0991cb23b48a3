package bulletprime

import (
	"context"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"bulletprime/internal/golden"
)

// goldenRecords are four archive records whose content address and payload
// hash DESIGN.md §7 promises reproduce: the id is a hash of the config
// fingerprint, the RecordSHA a hash of record.jsonl. Their pins were recorded
// on amd64 at the commit before the façade's Sample, Annotation, TraceSpan
// and TestbedOptions became aliases; a refactor of how a run is described or
// recorded leaves them unmoved. A change that means to re-key the archive
// re-records them and says so. The first run crosses the §4.1 process's first
// change at t = 20 s, so its record carries an annotation line and a sample
// that reported it.
var goldenRecords = []struct {
	name    string
	cfg     RunConfig
	wrapper bool // through Run(), not New().Run()
}{
	{
		name: "one-shot with a series and annotations",
		cfg: RunConfig{
			Nodes: 10, FileBytes: 8e6, Seed: 1, SampleEvery: 2, DynamicBandwidth: true,
		},
	},
	{
		name:    "Run wrapper, no series",
		cfg:     RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1, SampleEvery: 5},
		wrapper: true,
	},
	{
		name: "streamed",
		cfg: RunConfig{
			Protocol: ProtocolBulletPrime, Nodes: 8, Network: NetworkModelNetClean, Seed: 7,
			SampleEvery: 2, Stream: &StreamOptions{BitrateBps: 64 * 1024, Duration: 16},
		},
	},
	{
		name: "sharded scalefill",
		cfg: RunConfig{
			Protocol: ProtocolScalefill, Nodes: 100, FileBytes: 1.5e6, Network: NetworkClustered,
			Seed: 7, Deadline: 60, Engine: EngineSharded, Shards: 4, SampleEvery: 5,
		},
	},
}

func TestGoldenArchiveIDs(t *testing.T) {
	for _, g := range goldenRecords {
		t.Run(g.name, func(t *testing.T) {
			arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
			if err != nil {
				t.Fatal(err)
			}
			arch.SetVersion("golden")
			cfg := g.cfg
			cfg.Archive = arch
			if g.wrapper {
				_, err = Run(cfg)
			} else {
				var exp *Experiment
				if exp, err = New(cfg); err == nil {
					_, err = exp.Run(context.Background())
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			metas, err := arch.List()
			if err != nil || len(metas) != 1 {
				t.Fatalf("archive lists %d records (%v), want 1", len(metas), err)
			}
			m := metas[0]
			golden.Check(t, t.Name()+"/id", m.ID)
			golden.Check(t, t.Name()+"/sha", m.RecordSHA)
			golden.Check(t, t.Name()+"/samples", strconv.Itoa(m.Samples))
		})
	}
}

// TestGoldenTestbedFingerprint pins the canonical JSON a testbed config
// hashes to: the result-shaping transport knobs are in it, the address knobs
// are not. No socket is opened.
func TestGoldenTestbedFingerprint(t *testing.T) {
	cfg, err := RunConfig{
		Nodes: 8, FileBytes: 1 << 18, Network: NetworkTestbedUDP, Seed: 3, SampleEvery: -1,
		Testbed: &TestbedOptions{
			ListenHost: "127.0.0.1", Peers: map[int]string{1: "127.0.0.1:9001"},
			Rate: 50, RTO: 0.01, MaxRetries: 4, DropProb: 0.02, DropSeed: 9,
		},
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	js, _, _, err := fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, t.Name(), string(js))
}

// TestRunWrapperIsUnsampledSession pins what the one-shot wrapper is: a
// session with the series switched off. Same Result, same archive id.
func TestRunWrapperIsUnsampledSession(t *testing.T) {
	arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 4, SampleEvery: 3, DynamicBandwidth: true, Archive: arch}
	wrapped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SampleEvery = -1
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	session, err := exp.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wrapped, session) {
		t.Fatalf("Run(cfg) and New(cfg with SampleEvery -1).Run(nil) differ:\n%+v\n%+v", wrapped, session)
	}
	metas, err := arch.List()
	if err != nil || len(metas) != 1 || metas[0].ID != exp.RunID() {
		t.Fatalf("the two runs left %d records (%v), want the one id %q", len(metas), err, exp.RunID())
	}
}
