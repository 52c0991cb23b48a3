package core

import (
	"reflect"
	"runtime"
	"testing"

	"bulletprime/internal/netem"
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

// mallocs counts the heap objects one call of f allocates, measured as
// testing.AllocsPerRun measures but without its warm-up call, for steps that
// cannot be repeated on the same state.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// initialDiff is a delivered initial diff advertising blocks 0..n-1.
func initialDiff(n int) *diffMsg {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return &diffMsg{ids: ids, initial: true, live: true}
}

// TestReAddedSenderReusesState drops a sender that holds an availability
// list, advertised bits and meter readings, and re-adds one: the new sender
// takes all three from the session's spares, cleared, and the peering
// allocates only its senderPeer and its connection. A second sender added
// after the same drop gets memory of its own.
func TestReAddedSenderReusesState(t *testing.T) {
	r := buildRig(4, 50, func(c *Config) { c.NumBlocks = 1024 }, nil)
	p := r.sess.peers[1]
	p.addSender(2)
	sp := p.senders[0]
	p.onDiff(sp.conn, initialDiff(1000))
	sp.meter.Add(r.eng.Now(), 16*1024)
	array := &sp.avail[:1][0]

	p.dropSender(sp, true)
	if sp.avail != nil || sp.advertised.Len() != 0 || !reflect.ValueOf(sp.meter).IsZero() {
		t.Fatalf("dropped sender still holds per-block memory: cap(avail) %d, bitmap over %d blocks, meter %+v",
			cap(sp.avail), sp.advertised.Len(), sp.meter)
	}
	if _, spare := r.sess.senderBytes(); spare == 0 {
		t.Fatal("drop left nothing spare")
	}

	if n := mallocs(func() { p.addSender(2) }); n != 2 {
		t.Fatalf("re-adding a sender allocates %d objects, want 2 (the senderPeer and its proto.Conn)", n)
	}
	again := p.senders[0]
	if cap(again.avail) < 1000 || &again.avail[:1][0] != array {
		t.Fatalf("re-added sender did not take the dropped sender's availability array (cap %d)", cap(again.avail))
	}
	if len(again.avail) != 0 || again.advertised.Count() != 0 || again.advertised.Len() != r.sess.maxBlockID() {
		t.Fatalf("re-added sender's state is not fresh: %d available, %d of %d bits advertised",
			len(again.avail), again.advertised.Count(), again.advertised.Len())
	}
	if again.meter.Total() != 0 || again.meter.Rate(r.eng.Now(), 5) != 0 {
		t.Fatalf("re-added sender's meter reads %v bytes, rate %v", again.meter.Total(), again.meter.Rate(r.eng.Now(), 5))
	}
	if _, spare := r.sess.senderBytes(); spare != 0 {
		t.Fatalf("%d spare bytes left after the one spare was taken", spare)
	}

	p.addSender(3)
	other := p.senders[1]
	again.advertised.Set(7)
	again.meter.Add(r.eng.Now(), 1)
	again.avail = append(again.avail, 7)
	other.avail = append(other.avail, 9)
	if other.advertised.Get(7) || other.meter.Total() != 0 || again.avail[0] != 7 {
		t.Fatal("two senders share one spare")
	}
}

// TestInitialDiffGrowsOnce checks that a long diff into an empty sender
// grows its availability list in one allocation, not once per doubling.
func TestInitialDiffGrowsOnce(t *testing.T) {
	r := buildRig(4, 50, func(c *Config) { c.NumBlocks = 1024 }, nil)
	p := r.sess.peers[1]
	d := initialDiff(1000)
	// The first diff sizes the session's scratch and warms the request
	// path's pools; neither is the list's cost. Its requests are never
	// delivered, so the request free list is filled by hand.
	p.addSender(2)
	p.onDiff(p.senders[0].conn, d)
	var reqs [2 * InitialOutstanding]*reqMsg
	for i := range reqs {
		reqs[i] = r.sess.reqs.get()
	}
	for _, rm := range reqs {
		r.sess.reqs.put(rm)
	}
	p.addSender(3)
	sp := p.senders[1]
	if n := mallocs(func() { p.onDiff(sp.conn, d) }); n > 1 {
		t.Fatalf("a 1000-id initial diff costs %d allocations, want at most 1", n)
	}
	if sp.advertised.Count() != 1000 {
		t.Fatalf("sender advertises %d blocks, want 1000", sp.advertised.Count())
	}
}

// BenchmarkSenderChurn is the cost of one peering turned over: a warmed
// peer drops a sender, dials another and takes its 3,000-block initial
// diff, and the engine then runs until the exchange settles (hello, accept,
// the dial's empty initial diff from the new sender, stale requests, the
// old peering's close). The senders hold nothing, so nothing is ever
// served and every iteration starts from the same state.
func BenchmarkSenderChurn(b *testing.B) {
	const blocks, senders = 3000, 8
	r := buildRig(2+senders, 50, func(c *Config) { c.NumBlocks = blocks }, nil)
	p := r.sess.peers[1]
	d := initialDiff(blocks)
	turn := func(i int) {
		if len(p.senders) > 0 {
			p.dropSender(p.senders[0], true)
		}
		p.addSender(netem.NodeID(2 + i%senders))
		p.onDiff(p.senders[0].conn, d)
		r.eng.RunUntil(r.eng.Now() + 1)
	}
	for i := 0; i < 4*senders; i++ {
		turn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		turn(i)
	}
}
