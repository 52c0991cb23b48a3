package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"bulletprime/internal/golden"
)

// TestGroupGolden pins the group's per-shard schedule to recorded digests,
// not just workers=1 against workers=N: a change to the synchronization
// that broke both modes the same way would pass the equivalence tests and
// fail here. For each shard count K, every seed's run folds each shard's
// program hash and event count plus its Executed, Posted, CrossExecuted and
// Compactions into one SHA-256, and three ways of reaching the 2 s horizon
// must all give the pinned digest: workers=1, workers=0, and a run split
// at 0.7 s and 1.3 s that changes mode between parts.
func TestGroupGolden(t *testing.T) {
	const horizon = Time(2.0)
	modes := []struct {
		name string
		run  func(*Group)
	}{
		{"workers=1", func(g *Group) { g.Run(horizon, 1, nil) }},
		{"workers=0", func(g *Group) { g.Run(horizon, 0, nil) }},
		{"split", func(g *Group) {
			g.Run(0.7, 0, nil)
			g.Run(1.3, 1, nil)
			g.Run(horizon, 0, nil)
		}},
	}
	for _, k := range []int{1, 2, 4, 7} {
		for _, m := range modes {
			h := sha256.New()
			for _, seed := range []int64{3, 11, 1234, 99991} {
				g, progs := buildProgGroup(seed, k, 0.005)
				m.run(g)
				for i, p := range progs {
					s := g.Shard(i)
					binary.Write(h, binary.LittleEndian, []uint64{
						p.hash, p.count, s.Engine().Executed, s.Posted, s.CrossExecuted, s.Engine().Compactions,
					})
				}
			}
			golden.Check(t, fmt.Sprintf("%s/K%d", t.Name(), k), hex.EncodeToString(h.Sum(nil)))
		}
	}
}
