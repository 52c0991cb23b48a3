package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"bulletprime/internal/bittorrent"
	"bulletprime/internal/bullet"
	"bulletprime/internal/netem"
	"bulletprime/internal/scenario"
	"bulletprime/internal/splitstream"
)

// TestBaselineGolden pins the three baseline protocols run for run: each
// row's SHA-256 covers every novel block arrival in event order, every
// node's completion time in node order, the session's Duplicates and its
// protocol counters (RequestsSent for Bullet and BitTorrent, plus Bullet's
// push counters and SplitStream's forwards).
// At 30 nodes and 4 MB BitTorrent has 16 pieces, enough to reach rarest
// ties, endgame and claim release; the failure rows crash three receivers
// mid-run, which closes their connections at every survivor, so
// BitTorrent's onConnClose and choke release and Bullet's dropSender run.
func TestBaselineGolden(t *testing.T) {
	const nodes, blockSize = 30, 16 * 1024
	// Each failure lands near the middle of its protocol's static run, and
	// BitTorrent's off its 10 s choke cycle, so requests are in flight to
	// the failed peers when they go.
	fail := func(at float64) *scenario.Program {
		prog, err := scenario.New("fail", scenario.Fail(at, 7, 13, 22)).Compile(nodes)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	cases := []struct {
		name, system string
		scenario     *scenario.Program
		digest       string
	}{
		{"Bullet", "Bullet", nil,
			"0d37bdf3e5f5f6d6b69375b76e4206de20f9cab044ac1151c8cf2027d65eea16"},
		{"Bullet/fail", "Bullet", fail(12),
			"1e4d9d86939fb39e5df51480223703069dd77822aa41f27182a9a19d8c12c82b"},
		{"BitTorrent", "BitTorrent", nil,
			"ad353cfd1186d18936072c3b382bc914d20b9010ead4344c119c822768c9e789"},
		{"BitTorrent/fail", "BitTorrent", fail(47.5),
			"29b4e4db481ab52891d44cb0eaf3390afe96e88f748bcbc27cb60c1296113bf7"},
		{"SplitStream", "SplitStream", nil,
			"946e812196cd631a30be4bf167ce983d00378e5e63e7bf4a8bb52a1d836a5f06"},
		{"SplitStream/fail", "SplitStream", fail(6),
			"2bfe93f1dd5ab36d5261f3bfb03d70a8b9e30db9c1f1d3143f5b255efd2bf733"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				sys System
				rig *Rig
			)
			digest := sha256.New()
			var rec [24]byte
			spec := SweepSpec{
				Label: tc.name, Seed: 5, TopoFn: ModelNetTopology(nodes), System: tc.system,
				Workload: Workload{FileBytes: 256 * blockSize, BlockSize: blockSize},
				Deadline: 900, Scenario: tc.scenario,
				Hooks: &Hooks{
					OnStart: func(r *Rig, s System) { rig, sys = r, s },
					OnBlock: func(id netem.NodeID, block, _ int) {
						binary.LittleEndian.PutUint64(rec[0:], uint64(id))
						binary.LittleEndian.PutUint64(rec[8:], uint64(block))
						binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(float64(rig.Eng.Now())))
						digest.Write(rec[:])
					},
				},
			}
			res := RunSpec(spec)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			var counters []int
			switch s := sys.(type) {
			case *bullet.Session:
				counters = []int{s.Duplicates, s.RequestsSent, s.PushesSent, s.TreeDropped}
			case *bittorrent.Session:
				counters = []int{s.Duplicates, s.RequestsSent}
			case *splitstream.Session:
				counters = []int{s.Duplicates, s.BlocksForwarded}
			default:
				t.Fatalf("system %T is not a baseline", sys)
			}
			ids := make([]netem.NodeID, 0, len(res.PerNode))
			for id := range res.PerNode {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for _, id := range ids {
				binary.LittleEndian.PutUint64(rec[0:], uint64(id))
				binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(float64(res.PerNode[id])))
				digest.Write(rec[:16])
			}
			for _, c := range counters {
				binary.LittleEndian.PutUint64(rec[0:], uint64(c))
				digest.Write(rec[:8])
			}
			got := fmt.Sprintf("%x", digest.Sum(nil))
			if got != tc.digest {
				t.Errorf("digest %s, want %s", got, tc.digest)
			}
		})
	}
}
