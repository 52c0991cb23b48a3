package lab

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseFilter: a selector string the process did not write gives an
// error or a filter, never a panic, and the filter it gives is one that can
// match — a manifest carrying the filter's own values passes it.
func FuzzParseFilter(f *testing.F) {
	for _, s := range []string{
		"", " ", "protocol=bittorrent, seeds=1+3", "id=ab12", "network=clustered,version=v1",
		"scenario=flash", "seed=-7", "seed=1,seed=2", "bogus=1", "seed=abc", "protocol", ",,", "seeds=1++2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		flt, err := ParseFilter(s)
		if err != nil {
			return
		}
		for _, v := range []string{flt.ID, flt.Protocol, flt.Network, flt.Version, flt.Scenario} {
			if strings.Contains(v, ",") || strings.TrimSpace(v) != v {
				t.Fatalf("ParseFilter(%q) kept an untrimmed or unsplit value %q", s, v)
			}
		}
		m := Meta{ID: flt.ID, Protocol: flt.Protocol, Network: flt.Network, Version: flt.Version, Scenario: flt.Scenario}
		if len(flt.Seeds) > 0 {
			m.Seed = flt.Seeds[len(flt.Seeds)-1]
		}
		if !flt.Match(m) {
			t.Fatalf("ParseFilter(%q) = %+v matches no manifest, not even its own values", s, flt)
		}
	})
}

// FuzzDecodeRecord: record.jsonl bytes the process did not write give an
// error or a run, never a panic, and a run it accepts re-encodes through
// encodeRecord and decodes back to an equal run.
func FuzzDecodeRecord(f *testing.F) {
	record, err := encodeRecord(&Run{
		CompletionTimes: map[int]float64{1: 12.5, 2: 30.25},
		Series:          []Sample{{Time: 2, Completed: 1, Receivers: 2, GoodputBps: 4096, StreamLagP50: 1.5, Rebuffering: 1}},
		Annotations:     []Annotation{{At: 20, Text: "bandwidth change"}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(record)
	f.Add(record[:len(record)-9]) // a last line cut short by a partial write
	f.Add([]byte(`{"kind":"checkpoint","at":3}` + "\n"))
	f.Add([]byte(`{"kind":"sample"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var run Run
		if decodeRecord(data, &run) != nil {
			return
		}
		again, err := encodeRecord(&run)
		if err != nil {
			t.Fatalf("accepted run does not re-encode: %v", err)
		}
		var back Run
		if err := decodeRecord(again, &back); err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(run, back) {
			t.Fatalf("round trip changed the run:\n%+v\n%+v", run, back)
		}
	})
}

// FuzzDecodeManifest: manifest.json bytes the process did not write give an
// error or a manifest, never a panic. A manifest it accepts claims the id it
// was read under, its key inputs hash to that id, and it re-marshals as Put
// writes it and decodes back to an equal manifest.
func FuzzDecodeManifest(f *testing.F) {
	arch, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	id, _, err := arch.Put(&Run{
		Meta:            Meta{Config: []byte(`{"protocol":"bulletprime","nodes":8}`), Seed: 7, Protocol: "bulletprime", Nodes: 8},
		CompletionTimes: map[int]float64{1: 12.5, 2: 30.25},
	})
	if err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(arch.runDir(id), "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	edited := bytes.Replace(manifest, []byte(`"seed": 7`), []byte(`"seed": 8`), 1)
	if bytes.Equal(edited, manifest) {
		f.Fatal("the written manifest has no seed to edit")
	}
	f.Add(manifest, id)
	f.Add(manifest[:len(manifest)/2], id)         // cut short by a partial write
	f.Add(manifest, strings.Repeat("0", len(id))) // read under another run's id
	f.Add(edited, id)                             // a key input edited
	f.Fuzz(func(t *testing.T, data []byte, id string) {
		m, err := decodeManifest(data, id)
		if err != nil {
			return
		}
		if m.ID != id || Key(m.Config, m.Scenario, m.Seed, m.Version) != id {
			t.Fatalf("accepted a manifest that is not run %s: %+v", id, m)
		}
		again, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatalf("accepted manifest does not re-marshal: %v", err)
		}
		back, err := decodeManifest(again, id)
		if err != nil {
			t.Fatalf("re-marshalled manifest does not decode: %v\n%s", err, again)
		}
		// Config is raw JSON: re-marshalling re-spaces it, which its key ignores.
		m.Config, back.Config = compactJSON(t, m.Config), compactJSON(t, back.Config)
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the manifest:\n%+v\n%+v", m, back)
		}
	})
}

func compactJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatalf("manifest config is not JSON: %v", err)
	}
	return b.Bytes()
}

// FuzzParseBenchOutput: `go test -bench` text the process did not write
// gives an error or a non-empty result, never a panic, and every entry it
// accepts has a finite, non-negative ns/op, allocs/op and B/op.
func FuzzParseBenchOutput(f *testing.F) {
	f.Add(sampleBenchOutput)
	for _, s := range []string{
		"", "PASS\nok x 0.1s\n", "BenchmarkX-4 100 50.0 ns/op\n",
		"BenchmarkX-4 100 NaN ns/op 0 allocs/op\n", "BenchmarkX 1 -5 ns/op 0 allocs/op\n",
		"BenchmarkX 1 1 ns/op +Inf allocs/op\n", "Benchmark- 1 2 ns/op 3 allocs/op 4\n",
		"BenchmarkX-2 100000 174.3 ns/op 24 B/op 0 allocs/op\n", "BenchmarkX 1 1 ns/op NaN B/op 0 allocs/op\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseBenchOutput(strings.NewReader(s))
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatalf("ParseBenchOutput(%q) accepted an input with no results", s)
		}
		for name, e := range got {
			if !(e.NsPerOp >= 0 && e.AllocsPerOp >= 0 && e.bytesPerOp >= 0) ||
				math.IsInf(e.NsPerOp, 1) || math.IsInf(e.AllocsPerOp, 1) || math.IsInf(e.bytesPerOp, 1) {
				t.Fatalf("ParseBenchOutput(%q) accepted %s = %+v", s, name, e)
			}
		}
	})
}
