package core

import (
	"slices"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
	"bulletprime/internal/testbed"
)

func TestFreeListReusesAndGuards(t *testing.T) {
	var f freeList[reqMsg, *reqMsg]
	a, b := f.get(), f.get()
	if a == b {
		t.Fatal("one payload handed out twice")
	}
	if !a.live || !b.live {
		t.Fatal("handed-out payload not marked live")
	}
	a.id, a.totalInBW = 7, 3.5
	f.put(a)
	if a.live || a.id != 0 || a.totalInBW != 0 {
		t.Fatalf("returned payload not reset: %+v", *a)
	}
	if c := f.get(); c != a || !c.live {
		t.Fatal("returned payload not reused")
	}
	f.put(a)
	defer func() {
		if recover() == nil {
			t.Fatal("second put of one payload did not panic")
		}
	}()
	f.put(a)
}

func TestDeliveredRejectsReturnedPayload(t *testing.T) {
	var f freeList[blockMsg, *blockMsg]
	bm := f.get()
	f.put(bm)
	defer func() {
		if recover() == nil {
			t.Fatal("delivery of a payload already on the free list did not panic")
		}
	}()
	delivered(bm)
}

// auditFreeLists wraps every peer's message handler with the free-list
// invariant, checked at each delivery: the payload arriving is live and on
// no free list (so it cannot have been handed to another message while in
// flight), it is back on its list and reset once the handler returns, and
// no list ever holds a payload twice.
func auditFreeLists(t *testing.T, s *Session) {
	for _, p := range s.peers {
		inner := p.node.OnMessage
		p.node.OnMessage = func(c *proto.Conn, m proto.Message) {
			var onList func() bool
			var live *bool
			switch pl := m.Payload.(type) {
			case *reqMsg:
				onList, live = func() bool { return slices.Contains(s.reqs.free, pl) }, &pl.live
			case *blockMsg:
				onList, live = func() bool { return slices.Contains(s.blocks.free, pl) }, &pl.live
			case *diffMsg:
				onList, live = func() bool { return slices.Contains(s.diffs.free, pl) }, &pl.live
			}
			if onList != nil && (!*live || onList()) {
				t.Fatalf("kind %d payload delivered while on its free list (live=%v)", m.Kind, *live)
			}
			inner(c, m)
			if onList != nil && (*live || !onList()) {
				t.Fatalf("kind %d payload not returned at delivery (live=%v)", m.Kind, *live)
			}
			if hasDup(s.reqs.free) || hasDup(s.blocks.free) || hasDup(s.diffs.free) {
				t.Fatal("a free list holds one payload twice")
			}
		}
	}
}

func hasDup[P comparable](list []P) bool {
	seen := make(map[P]bool, len(list))
	for _, m := range list {
		if seen[m] {
			return true
		}
		seen[m] = true
	}
	return false
}

// TestFreeListInvariantUnderChurn runs a whole dissemination with senders
// crashing mid-download and peerings being trimmed and closed, auditing the
// free lists at every delivery.
func TestFreeListInvariantUnderChurn(t *testing.T) {
	r := buildRig(16, 31, func(c *Config) { c.NumBlocks = 128 }, nil)
	auditFreeLists(t, r.sess)
	r.sess.Start()
	r.eng.Schedule(4, func() {
		for _, id := range []netem.NodeID{3, 7, 12} {
			r.rt.Node(id).Fail()
		}
	})
	r.eng.RunUntil(300)
	if r.sess.RequestsSent == 0 || len(r.sess.reqs.free) == 0 || len(r.sess.blocks.free) == 0 || len(r.sess.diffs.free) == 0 {
		t.Fatalf("run did not exercise the free lists: %d requests, lists %d/%d/%d", r.sess.RequestsSent,
			len(r.sess.reqs.free), len(r.sess.blocks.free), len(r.sess.diffs.free))
	}
}

// sendPooledRequest queues one pooled request from p on c, as fillRequests
// does.
func sendPooledRequest(p *peer, c *proto.Conn) *reqMsg {
	rm := p.s.reqs.get()
	rm.id = 5
	c.Send(p.node, proto.Message{Kind: kindRequest, Size: 24, Payload: rm})
	return rm
}

// checkLeaked asserts that a dropped payload stayed out of circulation: it
// is still marked live, it is on no free list, and the next payload handed
// out is a different object.
func checkLeaked(t *testing.T, s *Session, rm *reqMsg, how string) {
	t.Helper()
	if !rm.live || slices.Contains(s.reqs.free, rm) {
		t.Fatalf("%s: dropped payload went back to the free list", how)
	}
	next := s.reqs.get()
	if next == rm {
		t.Fatalf("%s: dropped payload handed out again", how)
	}
	s.reqs.put(next)
}

// TestDroppedPayloadLeaksOnEmulatedPath: a message discarded by Conn.Close
// or addressed to a node that failed is never returned, so nothing later can
// alias it; one that is delivered comes back and is reused.
func TestDroppedPayloadLeaksOnEmulatedPath(t *testing.T) {
	r := buildRig(4, 80, nil, nil)
	p := r.sess.peers[1]

	c := p.node.Dial(2)
	rm := sendPooledRequest(p, c)
	c.Close(p.node) // still queued behind the handshake: drained by Close
	r.eng.RunUntil(r.eng.Now() + 5)
	checkLeaked(t, r.sess, rm, "closed connection")

	c = p.node.Dial(3)
	rm = sendPooledRequest(p, c)
	r.rt.Node(3).Fail()
	r.eng.RunUntil(r.eng.Now() + 5)
	checkLeaked(t, r.sess, rm, "failed node")

	c = p.node.Dial(2)
	rm = sendPooledRequest(p, c)
	r.eng.RunUntil(r.eng.Now() + 5)
	if rm.live || !slices.Contains(r.sess.reqs.free, rm) {
		t.Fatal("delivered payload was not returned to the free list")
	}
}

// TestFreeListOverTestbedTokenTable repeats both halves over real loopback
// sockets, where a payload crosses the wire as a token into the transport's
// process-local table: a message whose connection closed under it is looked
// up, dropped and never returned, and a full audited dissemination with a
// node failing mid-run completes.
func TestFreeListOverTestbedTokenTable(t *testing.T) {
	eng := sim.NewEngine()
	rt := proto.NewRuntime(eng, nil)
	members := []netem.NodeID{0, 1, 2, 3, 4, 5}
	clock := testbed.NewClock(50)
	tr, err := testbed.New(clock, testbed.Config{RTO: 0.01}, members)
	if err != nil {
		t.Fatalf("testbed.New: %v", err)
	}
	defer tr.Stop()
	rt.Transport = tr
	done := 0
	sess := NewSession(rt, Config{
		Swarm: proto.Swarm{Source: 0, Members: members, NumBlocks: 16, BlockSize: 1024,
			OnComplete: func(id netem.NodeID) {
				if id != 5 { // node 5 is the one that fails
					done++
				}
			}},
		Strategy: RarestRandom,
	}, sim.NewRNG(81).Stream("session"))
	auditFreeLists(t, sess)

	p := sess.peers[1]
	c := p.node.Dial(2)
	rm := sendPooledRequest(p, c)
	c.Close(p.node)
	settle := eng.Now() + 10
	testbed.Run(eng, tr, clock, settle, func() bool { return false }, nil)
	checkLeaked(t, sess, rm, "closed connection")

	sess.Start()
	eng.After(3, func() { rt.Node(5).Fail() })
	testbed.Run(eng, tr, clock, settle+600, func() bool { return done >= 4 }, nil)
	if done < 4 {
		t.Fatalf("%d of the 4 surviving receivers completed over the testbed", done)
	}
}
