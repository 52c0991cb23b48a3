package core

import (
	"testing"

	"bulletprime/internal/sim"
)

// TestPickBlockDoesNotAllocate pins the dense-state contract where it is
// paid most often: choosing the next block touches the availability list,
// the want bitset, the rarity bytes and the peer's tie scratch, and builds
// nothing.
func TestPickBlockDoesNotAllocate(t *testing.T) {
	for _, strat := range []RequestStrategy{FirstEncountered, Random, Rarest, RarestRandom} {
		t.Run(strat.String(), func(t *testing.T) {
			r := buildRig(4, 50, func(c *Config) { c.Strategy = strat; c.NumBlocks = 1024 }, nil)
			p := r.sess.peers[1]
			avail := make([]int, 0, 1024)
			for b := 0; b < 1024; b++ {
				avail = append(avail, (b*37)%1024) // every id once, scattered
			}
			newSyntheticSender(p, 3, avail[:512]) // some blocks less rare than others
			sp := newSyntheticSender(p, 2, avail)
			for b := 0; b < 1024; b += 5 {
				p.claim(b, 3) // and some unusable, to be compacted out
			}
			allocs := testing.AllocsPerRun(200, func() {
				id, ok := p.pickBlock(sp)
				if !ok {
					t.Fatal("availability list ran out")
				}
				p.claim(id, sp.id)
			})
			if allocs != 0 {
				t.Fatalf("pickBlock allocates %v objects per call, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateRoundTripDoesNotAllocate drives the whole per-block loop —
// diff, request, block, and the diff that block triggers one hop on — down
// a three-node chain fed by a live source, and checks that once the free
// lists, queues and availability lists have warmed up a second of it (four
// blocks, two hops each) allocates nothing.
//
// Two simulator costs are kept out of the measurement. The heap engine is
// used because the timer wheel allocates each of its 8192 slots on first
// use. And the engine's event free list is filled beforehand, because the
// number of pending events itself grows here, by eight a second: every
// empty answer to a diff request starts a diffReqBackoff timer that re-arms
// itself while the stream keeps starting new ones (a protocol finding, see
// ROADMAP), and each needs an event node.
func TestSteadyStateRoundTripDoesNotAllocate(t *testing.T) {
	r := buildRigOn(sim.NewEngineWithQueue(sim.QueueHeap), 3, 60, func(c *Config) {
		c.NumBlocks = 4096
		c.StreamBps = 64 * 1024 // four 16 KB blocks a second
	}, nil)
	src, mid, leaf := r.sess.peers[0], r.sess.peers[1], r.sess.peers[2]
	// No Start: no RanSub epochs and no source push, just the mesh links
	// 0 → 1 → 2 and the stream pacing timer.
	mid.addSender(0)
	leaf.addSender(1)
	src.releaseStreamBlock()
	r.eng.RunUntil(60)
	if leaf.store.Count() < 200 {
		t.Fatalf("chain is not carrying the stream: leaf holds %d blocks at t=60", leaf.store.Count())
	}
	for i := 0; i < 4096; i++ {
		r.eng.After(0, func() {})
	}
	r.eng.RunUntil(r.eng.Now())

	before := leaf.store.Count()
	allocs := testing.AllocsPerRun(50, func() { r.eng.RunUntil(r.eng.Now() + 1) })
	if got := leaf.store.Count() - before; got < 150 {
		t.Fatalf("only %d blocks crossed the chain while measuring, want about 200", got)
	}
	if allocs != 0 {
		t.Fatalf("a steady-state second of request/block/diff traffic allocates %v objects, want 0", allocs)
	}
}
