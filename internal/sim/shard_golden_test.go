package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestGroupGolden pins the group's per-shard schedule to recorded digests,
// not just workers=1 against workers=N: a change to the synchronization
// that broke both modes the same way would pass the equivalence tests and
// fail here. For each shard count K, every seed's run folds each shard's
// program hash and event count plus its Executed, Posted, CrossExecuted and
// Compactions into one SHA-256, and three ways of reaching the 2 s horizon
// must all give the recorded digest: workers=1, workers=0, and a run split
// at 0.7 s and 1.3 s that changes mode between parts.
func TestGroupGolden(t *testing.T) {
	const horizon = Time(2.0)
	want := map[int]string{
		1: "bde19ad8e5447994016c3b7d06c72cc34d1842b2b477ded2508196847a498fff",
		2: "beb09231d6a945687cf4fdd247eda76a8b4c2beeffe04123e813e57cf3b071a4",
		4: "69178cf07bb39743ac6937ed8e98859c359e95b35a5d13378fdac8bb84ec877c",
		7: "62ca4e51b9ba90f9177cef16b89ce710ce04e531eb2c9aba0ea78daed8220c53",
	}
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
			if got := hex.EncodeToString(h.Sum(nil)); got != want[k] {
				t.Errorf("K=%d %s: digest %s, want %s", k, m.name, got, want[k])
			}
		}
	}
}
