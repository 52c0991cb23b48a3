package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"bulletprime/internal/golden"
	"bulletprime/internal/netem"
)

// TestShardedGolden pins a sharded scalefill run to a recorded digest, not
// just workers=1 against workers=N: 1,000 nodes on the compact clustered
// topology with 8 shards, run four ways — workers 1 and 0, each with and
// without an OnShardTick every virtual second. One digest covers every
// node's completion time (bits, in node order) and each slot's Executed,
// Posted and CrossExecuted, and all four runs must equal its pin.
func TestShardedGolden(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 0} {
		for _, ticked := range []bool{false, true} {
			spec := shardedScaleSpec(n, true, 20261016, workers)
			spec.Shards = 8
			var rig *ShardedRig
			spec.Hooks = &Hooks{OnShardStart: func(r *ShardedRig, _ ShardSystem) { rig = r }}
			ticks := 0
			if ticked {
				spec.Hooks.TickEvery = 1
				spec.Hooks.OnShardTick = func(*ShardedRig, ShardSystem) { ticks++ }
			}
			res := RunSpec(spec)
			if res.Err != nil || !res.Finished || len(res.PerNode) != n {
				t.Fatalf("workers=%d ticked=%v: err=%v finished=%v completions=%d",
					workers, ticked, res.Err, res.Finished, len(res.PerNode))
			}
			if ticked && ticks == 0 {
				t.Fatalf("workers=%d: OnShardTick never fired", workers)
			}
			h := sha256.New()
			for id := 0; id < n; id++ {
				at, ok := res.PerNode[netem.NodeID(id)]
				bits := uint64(math.MaxUint64)
				if ok {
					bits = math.Float64bits(float64(at))
				}
				binary.Write(h, binary.LittleEndian, bits)
			}
			for _, slot := range rig.Slots {
				binary.Write(h, binary.LittleEndian, []uint64{slot.Eng.Executed, slot.Shard.Posted, slot.Shard.CrossExecuted})
			}
			golden.Check(t, t.Name(), hex.EncodeToString(h.Sum(nil)))
		}
	}
}
