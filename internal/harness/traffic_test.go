package harness

import (
	"testing"

	"bulletprime/internal/core"
	"bulletprime/internal/scenario"
)

// diffTraffic reads a finished Bullet′ run's traffic: the control share of
// delivered bytes, and the diffs plus diff requests delivered per pulled
// block — the cost of the §3.3.4 diff clock in messages.
func diffTraffic(t *testing.T, res *RunResult) (share, perBlock float64) {
	t.Helper()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	blocks := res.Traffic.Kind(core.KindBlock).Messages
	if blocks == 0 {
		t.Fatal("no block was pulled")
	}
	diffs := res.Traffic.Kind(core.KindDiff).Messages + res.Traffic.Kind(core.KindDiffReq).Messages
	return res.ControlOverhead(), float64(diffs) / float64(blocks)
}

// TestControlShareFlatInLength holds Bullet′ to the paper's tenet, "restrict
// control overhead in favor of distributing data", as a run grows: the
// control share of delivered bytes stays at most 10 %, and the diff
// exchange per pulled block does not grow by more than a quarter when the
// run doubles. The stream rows are examples/livestream's broadcast (24
// nodes on the ModelNet mesh, 1 Mbps, 40 % of the overlay joining at
// t = 30 s, seed 7) at 120 s and 240 s; a 30 s broadcast is mostly warm-up,
// so it is not the base. The file rows are Figure 4's Bullet′ series at 25
// nodes, 4 MB and 8 MB.
func TestControlShareFlatInLength(t *testing.T) {
	crowd, err := scenario.LiveFlashCrowd(30, 0.4).Compile(24)
	if err != nil {
		t.Fatal(err)
	}
	broadcast := func(duration float64) *RunResult {
		return RunSpec(SweepSpec{
			Label:    "livestream",
			Seed:     7,
			TopoFn:   ModelNetTopology(24),
			Workload: Workload{BlockSize: 16 * 1024},
			CoreMut:  func(c *core.Config) { c.Strategy = core.FirstEncountered },
			Deadline: 3600,
			Scenario: crowd,
			Stream:   &StreamSpec{BitrateBps: 1e6 / 8, Duration: duration},
		})
	}
	file := func(scale float64) *RunResult {
		return RunSpec(figureSpec(t, 4, Scale{Nodes: 0.25, File: scale}, 24, "BulletPrime"))
	}
	const maxShare, maxGrowth = 0.10, 1.25
	for _, tc := range []struct {
		name        string
		short, long func() *RunResult
	}{
		{"stream 120s/240s", func() *RunResult { return broadcast(120) }, func() *RunResult { return broadcast(240) }},
		{"file 4MB/8MB", func() *RunResult { return file(0.04) }, func() *RunResult { return file(0.08) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shortShare, shortPer := diffTraffic(t, tc.short())
			longShare, longPer := diffTraffic(t, tc.long())
			t.Logf("control share %.1f%% → %.1f%%; diffs + diff requests per pulled block %.2f → %.2f",
				100*shortShare, 100*longShare, shortPer, longPer)
			if max(shortShare, longShare) > maxShare {
				t.Errorf("control share %.1f%% / %.1f%%, want at most %.0f%%", 100*shortShare, 100*longShare, 100*maxShare)
			}
			if longPer > maxGrowth*shortPer {
				t.Errorf("diffs + diff requests per pulled block grow %.2f → %.2f as the run doubles, want at most %.2fx",
					shortPer, longPer, maxGrowth)
			}
		})
	}
}
