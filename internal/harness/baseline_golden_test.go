package harness

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"bulletprime/internal/bittorrent"
	"bulletprime/internal/bullet"
	"bulletprime/internal/golden"
	"bulletprime/internal/netem"
	"bulletprime/internal/ransub"
	"bulletprime/internal/scenario"
	"bulletprime/internal/splitstream"
)

// TestBaselineGolden pins the three baseline protocols run for run: each
// row's SHA-256 covers every novel block arrival in event order, every
// node's completion time in node order, the session's Duplicates and its
// protocol counters (RequestsSent for Bullet and BitTorrent, plus Bullet's
// push counters and SplitStream's forwards). Each static row also pins the
// messages and wire bytes delivered per message kind, named by number where
// the protocol exports no kind name, and every delivered message is one of
// the kinds listed.
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
	// Bullet's own kinds, then the RanSub kinds it carries.
	bulletKinds := []int{1, 2, 3, 4, 5, 6, 7, ransub.KindDistribute, ransub.KindCollect}
	kindName := map[int]string{ransub.KindDistribute: "distribute", ransub.KindCollect: "collect"}
	cases := []struct {
		name, system string
		scenario     *scenario.Program
		kinds        []int // pinned per kind on the static rows
	}{
		{"Bullet", "Bullet", nil, bulletKinds},
		{"Bullet/fail", "Bullet", fail(12), nil},
		{"BitTorrent", "BitTorrent", nil, []int{1, 2, 3, 4, 5, 6}},
		{"BitTorrent/fail", "BitTorrent", fail(47.5), nil},
		{"SplitStream", "SplitStream", nil, []int{1}},
		{"SplitStream/fail", "SplitStream", fail(6), nil},
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
			golden.Check(t, t.Name()+"/digest", fmt.Sprintf("%x", digest.Sum(nil)))
			var msgs uint64
			for _, k := range tc.kinds {
				kt := rig.RT.Traffic.Kind(k)
				if kt.Bytes != math.Trunc(kt.Bytes) {
					t.Fatalf("kind %d: %v bytes, not a whole number", k, kt.Bytes)
				}
				name := cmp.Or(kindName[k], fmt.Sprintf("kind%d", k))
				golden.Check(t, t.Name()+"/"+name, fmt.Sprintf("msgs=%d bytes=%d", kt.Messages, uint64(kt.Bytes)))
				msgs += kt.Messages
			}
			if tc.kinds != nil && msgs != rig.RT.MessagesDelivered {
				t.Errorf("the listed kinds carry %d of %d delivered messages", msgs, rig.RT.MessagesDelivered)
			}
		})
	}
}
