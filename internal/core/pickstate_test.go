package core

import (
	"errors"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// checkWant asserts the invariant block selection rests on, for every peer
// and every block: want has bit b set iff b is neither held nor claimed.
func checkWant(t *testing.T, s *Session) {
	t.Helper()
	for id, p := range s.peers {
		for b := 0; b < s.maxBlockID(); b++ {
			got := p.want[b>>6]&(1<<(uint(b)&63)) != 0
			if want := !p.store.Have(b) && p.claimed[b] == 0; got != want {
				t.Fatalf("t=%v node %d block %d: want bit %v, but held=%v claimed=%d",
					s.rt.Now(), id, b, got, p.store.Have(b), p.claimed[b])
			}
		}
		for b := s.maxBlockID(); b < len(p.want)*64; b++ {
			if p.want[b>>6]&(1<<(uint(b)&63)) != 0 {
				t.Fatalf("node %d: want bit %d set past the last block %d", id, b, s.maxBlockID()-1)
			}
		}
	}
}

// TestWantFollowsClaimsAndArrivals walks blocks through every edit the
// invariant has to survive — claimed, pushed while claimed, handed back by
// a dropped sender, released wholesale on completion — on a store size that
// is not a multiple of 64.
func TestWantFollowsClaimsAndArrivals(t *testing.T) {
	r := buildRig(4, 50, func(c *Config) { c.NumBlocks = 70 }, nil)
	p := r.sess.peers[1]
	checkWant(t, r.sess) // the source holds everything, the rest nothing
	p.addSender(2)
	p.addSender(3)
	sp, other := p.senders[0], p.senders[1]
	p.onDiff(other.conn, &diffMsg{ids: []int{3, 65}, initial: true})
	p.onDiff(sp.conn, &diffMsg{ids: []int{3, 65, 69}, initial: true})
	if p.claimed[3] != claimTag(other.id) || p.claimed[65] != claimTag(other.id) || p.claimed[69] != claimTag(sp.id) {
		t.Fatalf("claims after the two diffs: 3→%d 65→%d 69→%d", p.claimed[3], p.claimed[65], p.claimed[69])
	}
	checkWant(t, r.sess)
	p.acceptBlock(3) // pushed while claimed
	checkWant(t, r.sess)
	p.dropSender(other, false) // hands back 3 (held) and 65 (wanted again)
	if p.claimed[3] != 0 || p.claimed[65] != 0 {
		t.Fatalf("claims after the drop: 3→%d 65→%d", p.claimed[3], p.claimed[65])
	}
	checkWant(t, r.sess)
	for b := 0; b < 70; b++ {
		p.acceptBlock(b)
	}
	if !p.complete {
		t.Fatal("peer holding every block is not complete")
	}
	checkWant(t, r.sess)
}

func TestStaticPeersBound(t *testing.T) {
	if _, err := (Config{StaticPeers: maxStaticPeers}).withDefaults(); err != nil {
		t.Fatalf("StaticPeers %d refused: %v", maxStaticPeers, err)
	}
	for _, n := range []int{-1, maxStaticPeers + 1} {
		if _, err := (Config{StaticPeers: n}).withDefaults(); !errors.Is(err, errStaticPeersRange) {
			t.Fatalf("StaticPeers %d: error %v, want errStaticPeersRange", n, err)
		}
	}
}

// TestRarityOverflowPanics: the per-block sender count is a byte, and a
// count that would wrap is a bug to be named, not a zero to be picked first.
func TestRarityOverflowPanics(t *testing.T) {
	r := buildRig(4, 50, nil, nil)
	p := r.sess.peers[1]
	p.addSender(2)
	sp := p.senders[0]
	p.rarity[5] = 255
	defer func() {
		if recover() == nil {
			t.Fatal("the 256th advertisement of a block wrapped its rarity count")
		}
	}()
	p.onDiff(sp.conn, &diffMsg{ids: []int{5}})
}

// BenchmarkPickBlock is the block-selection layer's own number: one
// rarest-random pick and its claim, at the paper's file size (6400 blocks)
// with ten senders each advertising a scattered 15 % of the file — lists of
// a few hundred live candidates that overlap, so every claim and every
// arrival leaves entries in other senders' lists for the next compaction
// pass to drop. Blocks arrive 30 picks after they are claimed. Picks rotate
// over 32 receivers, as they do over a run's hundred: what a pick costs is
// set by how much of a peer's per-block state is still in cache when its
// turn comes round. When the lists run dry the rig is rebuilt off the clock.
func BenchmarkPickBlock(b *testing.B) {
	const blocks, receivers, senders, inFlight = 6400, 32, 10, 30
	rng := sim.NewRNG(5)
	avail := make([][]int, senders)
	for j := range avail {
		for _, id := range rng.Perm(blocks) {
			if rng.Intn(100) < 15 {
				avail[j] = append(avail[j], id)
			}
		}
	}
	type receiver struct {
		p      *peer
		sps    []*senderPeer
		ring   [inFlight]int
		claims int
	}
	var rs [receivers]receiver
	setup := func() {
		r := buildRig(receivers+senders+1, 50, func(c *Config) { c.NumBlocks = blocks }, nil)
		for k := range rs {
			rs[k] = receiver{p: r.sess.peers[netem.NodeID(1+k)]}
			for j := range avail {
				rs[k].sps = append(rs[k].sps, newSyntheticSender(rs[k].p, netem.NodeID(1+receivers+j), avail[j]))
			}
		}
	}
	setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &rs[i%receivers]
		sp := r.sps[i/receivers%senders]
		id, ok := r.p.pickBlock(sp)
		if !ok {
			b.StopTimer()
			setup()
			b.StartTimer()
			continue
		}
		r.p.claim(id, sp.id)
		if r.claims >= inFlight {
			arrived := r.ring[r.claims%inFlight]
			r.p.unclaim(arrived)
			r.p.hold(arrived, 0)
		}
		r.ring[r.claims%inFlight] = id
		r.claims++
	}
}
