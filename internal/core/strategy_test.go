package core

import (
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
)

// strategyPeer builds an unstarted session and hand-wires a receiver peer
// with synthetic sender state for pickBlock unit tests.
func strategyPeer(t *testing.T, strat RequestStrategy) *peer {
	t.Helper()
	r := buildRig(4, 50, func(c *Config) { c.Strategy = strat; c.NumBlocks = 64 }, nil)
	return r.sess.peers[1]
}

func newSyntheticSender(p *peer, id netem.NodeID, avail []int) *senderPeer {
	sp := &senderPeer{
		id:         id,
		advertised: *proto.NewBitmap(p.s.maxBlockID()),
		desired:    3,
		markBlock:  -2,
	}
	for _, b := range avail {
		sp.avail = append(sp.avail, int32(b))
		sp.advertised.Set(b)
		p.rarity[b]++
	}
	p.senders.insert(sp)
	return sp
}

func TestFirstEncounteredTakesHeadOrder(t *testing.T) {
	p := strategyPeer(t, FirstEncountered)
	sp := newSyntheticSender(p, 2, []int{9, 3, 7})
	for _, want := range []int{9, 3, 7} {
		got, ok := p.pickBlock(sp)
		if !ok || got != want {
			t.Fatalf("pickBlock = %d,%v, want %d", got, ok, want)
		}
		// Claim it, as fillRequests does, so the next pick skips it.
		p.claim(got, sp.id)
	}
	if _, ok := p.pickBlock(sp); ok {
		t.Fatal("pick from exhausted avail succeeded")
	}
}

func TestFirstEncounteredSkipsHeldAndClaimed(t *testing.T) {
	p := strategyPeer(t, FirstEncountered)
	sp := newSyntheticSender(p, 2, []int{1, 2, 3})
	p.acceptBlock(1) // already held
	p.claim(2, 3)    // claimed at another sender
	got, ok := p.pickBlock(sp)
	if !ok || got != 3 {
		t.Fatalf("pickBlock = %d,%v, want 3", got, ok)
	}
}

func TestRarestPicksLeastReplicated(t *testing.T) {
	p := strategyPeer(t, Rarest)
	// Blocks 10..13 advertised by two synthetic senders; block 20 by one.
	newSyntheticSender(p, 3, []int{10, 11, 12, 13})
	sp := newSyntheticSender(p, 2, []int{10, 11, 12, 13, 20})
	got, ok := p.pickBlock(sp)
	if !ok || got != 20 {
		t.Fatalf("rarest picked %d, want the unique block 20", got)
	}
}

func TestRarestDeterministicTieBreak(t *testing.T) {
	p := strategyPeer(t, Rarest)
	sp := newSyntheticSender(p, 2, []int{31, 5, 17})
	got, ok := p.pickBlock(sp)
	if !ok || got != 5 {
		t.Fatalf("rarest tie-break picked %d, want lowest id 5", got)
	}
}

func TestRarestRandomSpreadsTies(t *testing.T) {
	p := strategyPeer(t, RarestRandom)
	seen := map[int]bool{}
	// Re-create the same tied availability repeatedly; the random
	// tie-break should not always produce the same block.
	for trial := 0; trial < 40; trial++ {
		sp := newSyntheticSender(p, netem.NodeID(100+trial), []int{40, 41, 42, 43})
		got, ok := p.pickBlock(sp)
		if !ok {
			t.Fatal("pick failed")
		}
		seen[got] = true
		// Undo rarity bookkeeping for the next trial.
		for _, b := range []int{40, 41, 42, 43} {
			p.rarity[b]--
		}
		p.senders.remove(sp.id)
	}
	if len(seen) < 2 {
		t.Fatalf("rarest-random never varied its tie-break: %v", seen)
	}
}

func TestRandomCoversAllBlocks(t *testing.T) {
	p := strategyPeer(t, Random)
	sp := newSyntheticSender(p, 2, []int{1, 2, 3, 4, 5})
	got := map[int]bool{}
	for i := 0; i < 5; i++ {
		b, ok := p.pickBlock(sp)
		if !ok {
			t.Fatalf("pick %d failed", i)
		}
		if got[b] {
			t.Fatalf("block %d picked twice", b)
		}
		got[b] = true
		p.claim(b, sp.id)
	}
}

func TestPickBlockCompactsStaleAvail(t *testing.T) {
	p := strategyPeer(t, RarestRandom)
	sp := newSyntheticSender(p, 2, []int{1, 2, 3, 4})
	for _, b := range []int{1, 2, 3} {
		p.acceptBlock(b)
	}
	got, ok := p.pickBlock(sp)
	if !ok || got != 4 {
		t.Fatalf("pickBlock = %d,%v, want 4", got, ok)
	}
	if len(sp.avail) != 0 {
		t.Fatalf("stale avail not compacted: %v", sp.avail)
	}
}

func TestDiffSelfClockingSkipsBusyReceivers(t *testing.T) {
	r := buildRig(4, 51, nil, nil)
	p := r.sess.peers[1]
	// Receiver with a deep outbound queue: block arrival must not trigger
	// a diff to it (it will self-clock via its next request instead).
	other := r.sess.peers[2]
	conn := other.node.Dial(1) // direction 2->1; we need 1's send queue busy
	_ = conn
	c2 := p.node.Dial(2)
	rp := &receiverPeer{id: 2, conn: c2}
	p.receivers.insert(rp)
	c2.SetState(p.node, rp)
	// Make the queue busy with a large message.
	c2.Send(p.node, proto.Message{Kind: 1, Size: 1e7})
	diffsBefore := r.sess.DiffsSent
	p.acceptBlock(7)
	if r.sess.DiffsSent != diffsBefore {
		t.Fatal("diff sent to a receiver with a non-empty queue")
	}
}

func TestDiffGoesToIdleReceivers(t *testing.T) {
	r := buildRig(4, 52, nil, nil)
	p := r.sess.peers[1]
	c2 := p.node.Dial(2)
	rp := &receiverPeer{id: 2, conn: c2}
	p.receivers.insert(rp)
	c2.SetState(p.node, rp)
	diffsBefore := r.sess.DiffsSent
	p.acceptBlock(7)
	if r.sess.DiffsSent != diffsBefore+1 {
		t.Fatalf("idle receiver did not get a diff (%d -> %d)", diffsBefore, r.sess.DiffsSent)
	}
}

func TestIncrementalDiffNeverRepeats(t *testing.T) {
	r := buildRig(4, 53, nil, nil)
	p := r.sess.peers[1]
	c2 := p.node.Dial(2)
	rp := &receiverPeer{id: 2, conn: c2}
	p.receivers.insert(rp)
	c2.SetState(p.node, rp)

	p.hold(1, 0)
	p.hold(2, 0)
	p.sendDiff(rp, false)
	cursorAfterFirst := rp.diffCursor
	if cursorAfterFirst != 2 {
		t.Fatalf("cursor = %d, want 2", cursorAfterFirst)
	}
	// No new arrivals: nothing to send, cursor unchanged.
	p.sendDiff(rp, false)
	if rp.diffCursor != 2 {
		t.Fatal("cursor moved without new blocks")
	}
	p.hold(3, 0)
	p.sendDiff(rp, false)
	if rp.diffCursor != 3 {
		t.Fatalf("cursor = %d after third block, want 3", rp.diffCursor)
	}
}
