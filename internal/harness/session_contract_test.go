package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"bulletprime/internal/golden"
	"bulletprime/internal/netem"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
)

// contractSession is what one build of the "session-contract" system saw:
// the session, its cohort, and every OnComplete call it made.
type contractSession struct {
	sys     System
	members []netem.NodeID
	done    map[netem.NodeID]sim.Time
	errs    []string
}

// contractTarget is the registered system the "session-contract" entry
// builds next, and contractBuilt collects its builds (one per flash-crowd
// wave); TestSessionContract runs its cells one at a time.
var (
	contractTarget string
	contractBuilt  []*contractSession
)

// The "session-contract" entry builds contractTarget with its OnComplete
// callback watched. It is registered as stream-capable so stream cells pass
// Check; only stream-capable targets are run under a StreamSpec.
func init() {
	RegisterSystem("session-contract", SystemEntry{Streams: true, Build: func(ctx BuildCtx) System {
		inner, _ := LookupSystem(contractTarget)
		cs := &contractSession{members: ctx.Members, done: make(map[netem.NodeID]sim.Time)}
		onComplete := ctx.OnComplete
		ctx.OnComplete = func(id netem.NodeID) {
			switch _, again := cs.done[id]; {
			case id == cs.members[0]:
				cs.errs = append(cs.errs, fmt.Sprintf("OnComplete for the session source %d", id))
			case again:
				cs.errs = append(cs.errs, fmt.Sprintf("OnComplete twice for node %d", id))
			}
			cs.done[id] = ctx.Rig.Eng.Now()
			if len(cs.done) < len(cs.members)-1 && cs.sys.Complete() {
				cs.errs = append(cs.errs, fmt.Sprintf("Complete() true after %d of %d completions", len(cs.done), len(cs.members)-1))
			}
			onComplete(id)
		}
		cs.sys = inner.Build(ctx)
		contractBuilt = append(contractBuilt, cs)
		return cs.sys
	}})
}

// TestSessionContract pins what every registered single-rig system owes the
// harness, whatever its protocol: per node, OnBlock's held count runs 1, 2,
// 3, … with no gap; OnComplete fires once per receiver, never for a session
// source, and the rig records exactly those completions; Complete() stays
// false until the last receiver finishes and DoneAt() is that instant; and a
// stream run's tracker has seen every arrival the OnBlock hook sees, before
// the hook sees it. Each run's arrivals — (node, block, count, virtual time)
// in event order — are pinned by a SHA-256 digest.
func TestSessionContract(t *testing.T) {
	crowd, err := scenario.New("crowd",
		scenario.FlashCrowd(scenario.Wave{At: 0, Frac: 0.5}, scenario.Wave{At: 20})).Compile(12)
	if err != nil {
		t.Fatal(err)
	}
	const numBlocks, blockSize = 48, 16 * 1024
	// 4 blocks a second for 12 s: the same 48 blocks, source-paced.
	stream := &StreamSpec{BitrateBps: 4 * blockSize, Duration: 12}
	cases := []struct {
		name, system string
		stream       *StreamSpec
		crowd        *scenario.Program
	}{
		{"BulletPrime", "BulletPrime", nil, nil},
		{"Bullet", "Bullet", nil, nil},
		{"BitTorrent", "BitTorrent", nil, nil},
		{"SplitStream", "SplitStream", nil, nil},
		{"BulletPrime/stream", "BulletPrime", stream, nil},
		{"Bullet/stream", "Bullet", stream, nil},
		{"BulletPrime/crowd", "BulletPrime", nil, crowd},
		{"Bullet/crowd", "Bullet", nil, crowd},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			contractTarget, contractBuilt = tc.system, nil
			spec := SweepSpec{
				Label: tc.name, Seed: 3, TopoFn: ModelNetTopology(12), System: "session-contract",
				Workload: Workload{FileBytes: numBlocks * blockSize, BlockSize: blockSize},
				Deadline: 1200, Stream: tc.stream, Scenario: tc.crowd,
			}
			var rig *Rig
			held := make(map[netem.NodeID]int)
			digest := sha256.New()
			spec.Hooks = &Hooks{
				OnStart: func(r *Rig, _ System) {
					rig = r
					for _, cs := range contractBuilt {
						if cs.sys.Complete() {
							t.Errorf("session of %v complete before it started", cs.members)
						}
					}
				},
				OnBlock: func(id netem.NodeID, block, count int) {
					held[id]++
					if count != held[id] {
						t.Errorf("node %d: block %d arrived with count %d, want %d", id, block, count, held[id])
					}
					now := rig.Eng.Now()
					var rec [32]byte
					binary.LittleEndian.PutUint64(rec[0:], uint64(id))
					binary.LittleEndian.PutUint64(rec[8:], uint64(block))
					binary.LittleEndian.PutUint64(rec[16:], uint64(count))
					binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(float64(now)))
					digest.Write(rec[:])
					if rig.Stream == nil {
						return
					}
					for _, nr := range rig.Stream.Report(float64(now)).Nodes {
						if netem.NodeID(nr.Node) == id && nr.Blocks != held[id] {
							t.Errorf("node %d at t=%v: the stream tracker holds %d blocks when the hook sees %d",
								id, now, nr.Blocks, held[id])
						}
					}
				},
			}

			res := RunSpec(spec)

			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if tc.stream == nil && !res.Finished {
				t.Errorf("run did not finish by t=%v (%d completions)", res.EndedAt, len(res.PerNode))
			}
			if len(contractBuilt) == 0 {
				t.Fatal("no session was built")
			}
			completions := make(map[netem.NodeID]sim.Time)
			for _, cs := range contractBuilt {
				for _, e := range cs.errs {
					t.Error(e)
				}
				var last sim.Time
				for id, at := range cs.done {
					completions[id] = at
					last = max(last, at)
					if held[id] != numBlocks {
						t.Errorf("node %d completed holding %d of %d blocks", id, held[id], numBlocks)
					}
				}
				complete := len(cs.done) == len(cs.members)-1
				if cs.sys.Complete() != complete {
					t.Errorf("session of %v: Complete() = %v after %d of %d completions",
						cs.members, cs.sys.Complete(), len(cs.done), len(cs.members)-1)
				}
				if !complete {
					last = 0 // DoneAt is zero until the session completes
				}
				if cs.sys.DoneAt() != last {
					t.Errorf("session of %v: DoneAt() = %v, want %v", cs.members, cs.sys.DoneAt(), last)
				}
			}
			if len(completions) != len(res.PerNode) {
				t.Errorf("%d OnComplete calls, %d completions recorded on the rig", len(completions), len(res.PerNode))
			}
			for id, at := range completions {
				if got, ok := res.PerNode[id]; !ok || got != at {
					t.Errorf("node %d completed at t=%v; the rig recorded %v (present %v)", id, at, got, ok)
				}
			}
			if tc.stream != nil {
				for _, nr := range res.Stream.Nodes {
					if got := held[netem.NodeID(nr.Node)]; nr.Blocks != got {
						t.Errorf("viewer %d: the tracker counted %d blocks, the hook %d", nr.Node, nr.Blocks, got)
					}
				}
			}
			golden.Check(t, t.Name(), fmt.Sprintf("%x", digest.Sum(nil)))
		})
	}
}
