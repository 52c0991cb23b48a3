package bulletprime

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"bulletprime/internal/harness"
)

// ruleCase is one row of the rule table: a base config valid on its own and
// a mutation that makes a feature combination no backend can run, refused
// with an error that mentions want.
type ruleCase struct {
	name string
	base RunConfig
	mut  func(*RunConfig)
	want string
}

// harnessRuleCases is the rule table.
func harnessRuleCases() []ruleCase {
	emulated := RunConfig{Nodes: 8, FileBytes: 64 * 1024, Seed: 1}
	stream := RunConfig{Nodes: 8, Seed: 1, Stream: &StreamOptions{BitrateBps: 64 * 1024, Duration: 10}}
	testbed := RunConfig{Nodes: 8, FileBytes: 64 * 1024, Seed: 1, Network: NetworkTestbedUDP}
	sharded := RunConfig{Nodes: 100, FileBytes: 1e6, Seed: 1, Protocol: ProtocolScalefill,
		Network: NetworkClustered, Engine: EngineSharded}
	return []ruleCase{
		{"stream on shards", stream, func(c *RunConfig) { c.Engine = EngineSharded }, "sequential engine"},
		{"stream on sockets", stream, func(c *RunConfig) { c.Network = NetworkTestbedUDP }, "testbed"},
		{"stream on a one-shot protocol", stream, func(c *RunConfig) { c.Protocol = ProtocolBitTorrent }, "does not support live streaming"},
		{"stream without a rate", stream, func(c *RunConfig) { c.Stream = &StreamOptions{Duration: 10} }, "BitrateBps must be positive"},
		{"stream without a duration", stream, func(c *RunConfig) { c.Stream = &StreamOptions{BitrateBps: 1} }, "Duration must be positive"},
		{"testbed on shards", testbed, func(c *RunConfig) { c.Engine = EngineSharded }, "sharded engine"},
		{"testbed scenario", testbed, func(c *RunConfig) { c.Scenario = &Scenario{} }, "scenarios"},
		{"testbed dynamics", testbed, func(c *RunConfig) { c.DynamicBandwidth = true }, "DynamicBandwidth"},
		{"sharded scenario", sharded, func(c *RunConfig) { c.Scenario = &Scenario{} }, "scenarios"},
		{"sharded dynamics", sharded, func(c *RunConfig) { c.DynamicBandwidth = true }, "DynamicBandwidth"},
		{"single-rig protocol on shards", sharded, func(c *RunConfig) { c.Protocol = ProtocolBulletPrime }, "not registered for sharded"},
		{"sharded protocol on one rig", emulated, func(c *RunConfig) { c.Protocol = ProtocolScalefill }, "not registered for sequential"},
		{"unknown engine", emulated, func(c *RunConfig) { c.Engine = 5 }, "unknown Engine 5"},
		{"no file", emulated, func(c *RunConfig) { c.FileBytes = 0 }, "FileBytes must be positive and finite"},
		{"infinite file", emulated, func(c *RunConfig) { c.FileBytes = math.Inf(1) }, "FileBytes must be positive and finite"},
		{"negative block", emulated, func(c *RunConfig) { c.BlockSize = -1 }, "BlockSize must be positive and finite"},
		{"infinite block", emulated, func(c *RunConfig) { c.BlockSize = math.Inf(1) }, "BlockSize must be positive and finite"},
		{"infinite stream block", stream, func(c *RunConfig) { c.BlockSize = math.Inf(1) }, "BlockSize must be positive and finite"},
		{"infinite playout depth", stream, func(c *RunConfig) { c.Stream = &StreamOptions{BitrateBps: 1, Duration: 10, PlayoutDepth: math.Inf(1)} }, "PlayoutDepth must be finite"},
	}
}

// TestNewSurfacesHarnessRules is the façade twin of the harness's
// TestRunSpecRules: for every feature combination no backend can run, New
// must refuse with exactly the words harness.RunSpec returns for the lowered
// spec, so the two layers state each rule once and cannot drift apart.
func TestNewSurfacesHarnessRules(t *testing.T) {
	for _, tc := range harnessRuleCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.base
			tc.mut(&cfg)
			_, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New() error = %v, want a mention of %q", err, tc.want)
			}
			norm, nerr := cfg.normalized()
			if nerr != nil {
				t.Fatalf("the façade's own rules refused a harness-rule case: %v", nerr)
			}
			spec, _ := buildSpec(norm)
			res := harness.RunSpec(spec)
			if res.Err == nil || res.Err.Error() != err.Error() {
				t.Fatalf("New() said %q, harness.RunSpec said %v", err, res.Err)
			}
		})
	}
}

// TestStaticPeersOutOfRange: a pinned peer-set size a Bullet' peer cannot
// count in its per-block byte is refused by name at every entry point, never
// left to wrap inside the run.
func TestStaticPeersOutOfRange(t *testing.T) {
	base := RunConfig{Nodes: 8, FileBytes: 64 * 1024, Seed: 1}
	for _, n := range []int{-1, 256} {
		cfg := base
		cfg.StaticPeers = n
		if _, err := New(cfg); !errors.Is(err, errStaticPeersRange) {
			t.Fatalf("New(StaticPeers: %d) error = %v, want errStaticPeersRange", n, err)
		}
		if _, err := Run(cfg); !errors.Is(err, errStaticPeersRange) {
			t.Fatalf("Run(StaticPeers: %d) error = %v, want errStaticPeersRange", n, err)
		}
	}
	cfg := base
	cfg.StaticPeers = 255
	if _, err := cfg.normalized(); err != nil {
		t.Fatalf("StaticPeers: 255 refused: %v", err)
	}
}

// TestUnknownStrategyRefused: a request ordering Bullet' does not know picks
// no block, so its run would end at the deadline with no receiver done; New
// refuses it by name.
func TestUnknownStrategyRefused(t *testing.T) {
	for _, s := range []RequestStrategy{-1, RarestRandom + 1} {
		cfg := RunConfig{Nodes: 8, FileBytes: 64 * 1024, Seed: 1, Strategy: s}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Strategy") {
			t.Fatalf("New(Strategy: %d) error = %v, want one naming Strategy", s, err)
		}
	}
}

// TestPresetRefusingNodeCount: a network preset that cannot build the node
// count it is given — the clustered ones want whole clusters of 25 — makes New
// return an error naming the preset, the count and the reason. A
// NetworkBuilder has no error to return and panics; so may a registered one.
func TestPresetRefusingNodeCount(t *testing.T) {
	RegisterNetwork("test-even-only", func(n int) TopologyFn {
		if n%2 != 0 {
			panic("even node counts only")
		}
		return harness.ModelNetTopology(n)
	})
	for _, tc := range []struct {
		network NetworkPreset
		nodes   int
		reason  string
	}{
		{NetworkClustered, 30, "30 % 25 = 5"},
		{NetworkClusteredCompact, 30, "30 % 25 = 5"},
		{"test-even-only", 9, "even node counts only"},
	} {
		cfg := RunConfig{Network: tc.network, Nodes: tc.nodes, FileBytes: 1e6, Seed: 1}
		_, err := New(cfg)
		if err == nil {
			t.Fatalf("New(%s, %d nodes) succeeded", tc.network, tc.nodes)
		}
		for _, want := range []string{string(tc.network), fmt.Sprint(tc.nodes, " nodes"), tc.reason} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("New(%s, %d nodes) error %q does not mention %q", tc.network, tc.nodes, err, want)
			}
		}
		if _, err := Sweep(SweepConfig{Base: cfg}); err == nil {
			t.Errorf("Sweep(%s, %d nodes) succeeded", tc.network, tc.nodes)
		}
	}
	if _, err := New(RunConfig{Network: "test-even-only", Nodes: 10, FileBytes: 1e6}); err != nil {
		t.Fatalf("the preset's own node counts are refused too: %v", err)
	}
}
