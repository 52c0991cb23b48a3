package bullet

import (
	"slices"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
)

// closedConn dials from p to the given node and closes the link at once,
// so everything p sends on it is dropped at Send and a pin counts only the
// peer's own allocations.
func closedConn(p *bPeer, to netem.NodeID) *proto.Conn {
	c := p.node.Dial(to)
	c.Close(p.node)
	return c
}

// TestFillDoesNotAllocate pins the mesh request path on a warmed peer: a
// window of random picks from the sender's availability, dense claims, and
// request payloads that point into the session's index table (ids past
// 255, where a boxed integer would allocate).
func TestFillDoesNotAllocate(t *testing.T) {
	_, s := buildB(4, 1024, 31)
	p := s.peers[1]
	p.addSender(2)
	sp := p.senders[0]
	sp.conn = closedConn(p, 3)
	var ids []int
	for id := 300; id < 1024; id++ {
		ids = append(ids, id)
	}
	before := s.RequestsSent
	allocs := testing.AllocsPerRun(100, func() {
		p.claims.Clear()
		sp.outstanding = 0
		sp.avail = append(sp.avail[:0], ids...)
		p.fill(sp)
	})
	if sent := s.RequestsSent - before; sent != 101*MaxOutstanding {
		t.Fatalf("%d requests sent over 101 windows, want %d", sent, 101*MaxOutstanding)
	}
	if allocs != 0 {
		t.Fatalf("fill allocates %v objects per window, want 0", allocs)
	}
}

// TestOnReqDoesNotAllocate pins serving a request: the block payload is a
// pointer into the session's index table.
func TestOnReqDoesNotAllocate(t *testing.T) {
	_, s := buildB(4, 1024, 32)
	src := s.peers[0]
	c := closedConn(src, 1)
	allocs := testing.AllocsPerRun(100, func() { src.onReq(c, 700) })
	if allocs != 0 {
		t.Fatalf("onReq allocates %v objects per request, want 0", allocs)
	}
}

// TestAvailListReusesAndGuards holds the answer free list to its contract:
// a returned answer is reset and handed out again with its id slice, and
// returning one twice panics.
func TestAvailListReusesAndGuards(t *testing.T) {
	var f proto.FreeList[availMsg, *availMsg]
	a, b := f.Get(), f.Get()
	if a == b || !a.Live() || !b.Live() {
		t.Fatal("answers not distinct and live when handed out")
	}
	a.ids = append(a.ids, 7, 8, 9)
	f.Put(a)
	if a.Live() || len(a.ids) != 0 || cap(a.ids) < 3 {
		t.Fatalf("returned answer not reset with its slice kept: live=%v ids=%v cap=%d", a.Live(), a.ids, cap(a.ids))
	}
	if c := f.Get(); c != a || !c.Live() {
		t.Fatal("returned answer not reused")
	}
	f.Put(a)
	defer func() {
		if recover() == nil {
			t.Fatal("second put of one answer did not panic")
		}
	}()
	f.Put(a)
}

// TestAvailAnswersRecycle audits every delivery of a whole run: an
// arriving answer is live and on no free list, and it is back on the list,
// reset and keeping its id slice, once the handler returns.
func TestAvailAnswersRecycle(t *testing.T) {
	eng, s := buildB(12, 96, 33)
	delivered := 0
	for _, p := range s.peers {
		inner := p.node.OnMessage
		p.node.OnMessage = func(c *proto.Conn, m proto.Message) {
			am, ok := m.Payload.(*availMsg)
			if ok && (!am.Live() || slices.Contains(s.avails.Idle(), am)) {
				t.Fatalf("answer delivered while on the free list (live=%v)", am.Live())
			}
			inner(c, m)
			if ok {
				delivered++
				if am.Live() || len(am.ids) != 0 || cap(am.ids) < availLimit || !slices.Contains(s.avails.Idle(), am) {
					t.Fatalf("answer not returned at delivery with its id slice (live=%v, cap %d)", am.Live(), cap(am.ids))
				}
			}
		}
	}
	s.Start()
	eng.RunUntil(900)
	if !s.Complete() {
		t.Fatal("incomplete")
	}
	if delivered == 0 || len(s.avails.Idle()) >= delivered {
		t.Fatalf("%d answers delivered and %d on the free list at the end: not recycled", delivered, len(s.avails.Idle()))
	}
}
