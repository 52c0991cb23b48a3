package bulletprime

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenRecords are four archive records whose content address and payload
// hash DESIGN.md §7 promises reproduce: the id is a hash of the config
// fingerprint, the RecordSHA a hash of record.jsonl. Recorded on amd64 at the
// commit before the façade's Sample, Annotation, TraceSpan and TestbedOptions
// became aliases; a refactor of how a run is described or recorded leaves
// this table unedited. A change that means to re-key the archive edits it and
// says so. The first run crosses the §4.1 process's first change at t = 20 s, so
// its record carries an annotation line and a sample that reported it.
var goldenRecords = []struct {
	name    string
	cfg     RunConfig
	wrapper bool // through Run(), not New().Run()
	id, sha string
	samples int
}{
	{
		name: "one-shot with a series and annotations",
		cfg: RunConfig{
			Nodes: 10, FileBytes: 8e6, Seed: 1, SampleEvery: 2, DynamicBandwidth: true,
		},
		id:      "6cb0abbcb31806f8",
		sha:     "e1d9a8216f2de1f5102107ce9ecea5fc88722acbc65b1b315ba8d65cc0741a76",
		samples: 13,
	},
	{
		name:    "Run wrapper, no series",
		cfg:     RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 1, SampleEvery: 5},
		wrapper: true,
		id:      "5e5b9720f1432626",
		sha:     "059ce3a301bc40cea4c493106f1c730ff1fa2a4adfd13e741a126dbd5ab5f7d1",
	},
	{
		name: "streamed",
		cfg: RunConfig{
			Protocol: ProtocolStream, Nodes: 8, Network: NetworkModelNetClean, Seed: 7,
			SampleEvery: 2, Stream: &StreamOptions{BitrateBps: 64 * 1024, Duration: 16},
		},
		id:      "1beb90a8be84673c",
		sha:     "b5b656cc9bd89c92e5a3922ba6e043fbe97c6e95be1a2d57bfc46937ffda05cd",
		samples: 9,
	},
	{
		name: "sharded scalefill",
		cfg: RunConfig{
			Protocol: ProtocolScalefill, Nodes: 100, FileBytes: 1.5e6, Network: NetworkClustered,
			Seed: 7, Deadline: 60, Engine: EngineSharded, Shards: 4, SampleEvery: 5,
		},
		id:      "76f56859d6c3d06f",
		sha:     "867d1c0879edc78467e00552875b0bc90e0e2c46e9804892c5696109aed10fd6",
		samples: 12,
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
			if m.ID != g.id || m.RecordSHA != g.sha || m.Samples != g.samples {
				t.Fatalf("record is\n  id %q sha %q samples %d, want\n  id %q sha %q samples %d",
					m.ID, m.RecordSHA, m.Samples, g.id, g.sha, g.samples)
			}
		})
	}
}

// TestGoldenTestbedFingerprint pins the canonical JSON a testbed config
// hashes to: the result-shaping transport knobs are in it, the address knobs
// are not. No socket is opened.
func TestGoldenTestbedFingerprint(t *testing.T) {
	cfg, err := RunConfig{
		Nodes: 8, FileBytes: 1 << 18, Network: NetworkTestbedUDP, Seed: 3,
		Testbed: &TestbedOptions{
			ListenHost: "127.0.0.1", Peers: map[int]string{1: "127.0.0.1:9001"},
			Rate: 50, RTO: 0.01, MaxRetries: 4, DropProb: 0.02, DropSeed: 9,
		},
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	js, _, _, err := fingerprint(cfg, -1)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"protocol":"bulletprime","nodes":8,"file_bytes":262144,"block_size":16384,"network":"testbed-udp","seed":3,"deadline":3600,"sample_every":-1,"strategy":0,"testbed":{"rate":50,"rto":0.01,"max_retries":4,"drop_prob":0.02,"drop_seed":9}}`
	if string(js) != want {
		t.Fatalf("testbed fingerprint is\n%s\nwant\n%s", js, want)
	}
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
