package bulletprime

import (
	"bytes"
	"reflect"
	"testing"
)

// canonicalFingerprint is the archive fingerprint of cfg once normalized.
func canonicalFingerprint(t *testing.T, cfg RunConfig) string {
	t.Helper()
	norm, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	js, _, _, err := fingerprint(norm)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestConfigIsCanonical pins RunConfig.normalized as the one reading of a
// config's defaults. Every defaulted setting hashes to one archive id
// whether it is left implicit or spelled out at its default, and
// normalizing a normalized config changes nothing, so an identical rerun
// dedupes however it was written.
func TestConfigIsCanonical(t *testing.T) {
	file := RunConfig{Nodes: 8, FileBytes: 1 << 20, Seed: 1}
	small := RunConfig{Nodes: 8, FileBytes: 256 * 1024, Seed: 1}
	live := RunConfig{Nodes: 8, Seed: 1, Stream: &StreamOptions{BitrateBps: 64 * 1024, Duration: 16}}
	socket := RunConfig{Nodes: 8, FileBytes: 1 << 20, Seed: 1, Network: NetworkTestbedUDP}
	sharded := RunConfig{Nodes: 100, FileBytes: 1e6, Seed: 1, Protocol: ProtocolScalefill,
		Network: NetworkClustered, Engine: EngineSharded}
	with := func(c RunConfig, mut func(*RunConfig)) RunConfig {
		mut(&c)
		return c
	}
	stream := func(mut func(*StreamOptions)) RunConfig {
		s := *live.Stream
		mut(&s)
		return with(live, func(c *RunConfig) { c.Stream = &s })
	}
	testbed := func(tb TestbedOptions) RunConfig {
		return with(socket, func(c *RunConfig) { c.Testbed = &tb })
	}
	rows := []struct {
		name               string
		implicit, explicit RunConfig
	}{
		{"Protocol", file, with(file, func(c *RunConfig) { c.Protocol = ProtocolBulletPrime })},
		{"Network", file, with(file, func(c *RunConfig) { c.Network = NetworkModelNet })},
		{"BlockSize", file, with(file, func(c *RunConfig) { c.BlockSize = 16 * 1024 })},
		// A block larger than the file is the file (RunConfig.BlockSize).
		{"BlockSize above FileBytes", with(small, func(c *RunConfig) { c.BlockSize = 1 << 30 }),
			with(small, func(c *RunConfig) { c.BlockSize = 256 * 1024 })},
		{"Deadline", file, with(file, func(c *RunConfig) { c.Deadline = 3600 })},
		{"SampleEvery", file, with(file, func(c *RunConfig) { c.SampleEvery = 1 })},
		{"Stream.PlayoutDepth", live, stream(func(s *StreamOptions) { s.PlayoutDepth = 4 })},
		{"Stream.Warmup", live, stream(func(s *StreamOptions) { s.Warmup = 4 })},
		{"Stream.Drain", live, stream(func(s *StreamOptions) { s.Drain = 15 })},
		{"Testbed", socket, testbed(TestbedOptions{})},
		{"Testbed.Rate", socket, testbed(TestbedOptions{Rate: 1})},
		{"Testbed.RTO", socket, testbed(TestbedOptions{RTO: 0.05})},
		{"Testbed.MaxRetries", socket, testbed(TestbedOptions{MaxRetries: 8})},
		{"Shards", sharded, with(sharded, func(c *RunConfig) { c.Shards = 8 })},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if a, b := canonicalFingerprint(t, r.implicit), canonicalFingerprint(t, r.explicit); a != b {
				t.Fatalf("implicit and explicit defaults hash apart:\n%s\n%s", a, b)
			}
			checkFixedPoint(t, r.implicit)
			checkFixedPoint(t, r.explicit)
		})
	}
	t.Run("warmup off", func(t *testing.T) {
		checkFixedPoint(t, stream(func(s *StreamOptions) { s.Warmup = -1 }))
	})
	t.Run("rule table", func(t *testing.T) {
		for _, rc := range harnessRuleCases() {
			cfg := rc.base
			rc.mut(&cfg)
			checkFixedPoint(t, rc.base)
			checkFixedPoint(t, cfg)
		}
	})
}

// checkFixedPoint fails unless normalizing cfg's normalized form changes
// nothing.
func checkFixedPoint(t *testing.T, cfg RunConfig) {
	t.Helper()
	once, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.normalized()
	if err != nil {
		t.Fatalf("a normalized config is refused: %v", err)
	}
	if !reflect.DeepEqual(once, twice) {
		t.Errorf("normalizing twice moved the config:\n%+v\n%+v", once, twice)
	}
}

// TestNewOfConfigKeepsFingerprint: a session built from another session's
// normalized config is the same experiment, under the same archive id.
func TestNewOfConfigKeepsFingerprint(t *testing.T) {
	for _, g := range goldenRecords {
		t.Run(g.name, func(t *testing.T) {
			exp, err := New(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			again, err := New(exp.Config())
			if err != nil {
				t.Fatalf("New(exp.Config()): %v", err)
			}
			a, _, _, _ := fingerprint(exp.cfg)
			b, _, _, _ := fingerprint(again.cfg)
			if !bytes.Equal(a, b) {
				t.Fatalf("fingerprint moved:\n%s\n%s", a, b)
			}
		})
	}
}

// TestOversizeBlockIsTheFile: a 1 GiB block on a 256 KiB file runs as the
// file's one 256 KiB block and completes, the run of the explicit 256 KiB
// block. Sent at its stated size, that block reached none of the 7
// receivers by the 3,600 s deadline.
func TestOversizeBlockIsTheFile(t *testing.T) {
	small := RunConfig{Nodes: 8, FileBytes: 256 * 1024, Seed: 1}
	run := func(block float64) *Result {
		cfg := small
		cfg.BlockSize = block
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	over, exact := run(1<<30), run(256*1024)
	if !over.Finished || len(over.CompletionTimes) != 7 {
		t.Fatalf("1 GiB block: finished %v, %d of 7 receivers complete", over.Finished, len(over.CompletionTimes))
	}
	if !reflect.DeepEqual(over.CompletionTimes, exact.CompletionTimes) {
		t.Fatalf("1 GiB block completed at %v, the 256 KiB block at %v", over.CompletionTimes, exact.CompletionTimes)
	}
}
