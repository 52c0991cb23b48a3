package proto

import (
	"slices"
	"strings"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

func TestFailClosesConnsAndNotifiesPeers(t *testing.T) {
	eng, rt := newRig(3)
	a, b := rt.Node(0), rt.Node(1)
	var bSawClose bool
	b.OnClose = func(c *Conn) { bSawClose = true }
	c := a.Dial(1)
	c.Send(a, Message{Kind: 1, Size: 1e6})
	eng.RunUntil(0.1)
	a.Fail()
	eng.Run()
	if !bSawClose {
		t.Fatal("peer not notified of failed node's connection")
	}
	if !a.Dead() {
		t.Fatal("Dead() false after Fail")
	}
	if a.Conns() != 0 {
		t.Fatalf("failed node still has %d conns", a.Conns())
	}
}

// TestFailClosesInDialOrder checks that a failing node's peers hear of it
// in the order the connections were dialed, whichever side dialed, and not
// in the order of a map walk: with equal delays the notifications are due
// at one instant, and the engine runs them in the order they were made.
func TestFailClosesInDialOrder(t *testing.T) {
	want := []netem.NodeID{5, 3, 1, 4, 2}
	for trial := 0; trial < 20; trial++ {
		eng, rt := newRig(6)
		var got []netem.NodeID
		for id := netem.NodeID(1); id < 6; id++ {
			n := rt.Node(id)
			n.OnClose = func(*Conn) { got = append(got, n.ID) }
		}
		a := rt.Node(0)
		a.Dial(5)
		a.Dial(3)
		a.Dial(1)
		rt.Node(4).Dial(0)
		rt.Node(2).Dial(0)
		eng.RunUntil(0.1)
		a.Fail()
		eng.Run()
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: peers notified in order %v, want the dial order %v", trial, got, want)
		}
	}
}

func TestFailIsIdempotent(t *testing.T) {
	_, rt := newRig(2)
	a := rt.Node(0)
	a.Fail()
	a.Fail()
}

func TestDialToDeadNodeIsPreClosed(t *testing.T) {
	eng, rt := newRig(2)
	a, b := rt.Node(0), rt.Node(1)
	b.Fail()
	c := a.Dial(1)
	if !c.Closed() {
		t.Fatal("dial to dead node returned an open conn")
	}
	// Operations on the pre-closed conn must be safe no-ops.
	c.Send(a, Message{Kind: 1, Size: 64})
	if got := c.QueueLen(a); got != 0 {
		t.Fatalf("QueueLen on pre-closed conn = %d", got)
	}
	_ = c.IdleFor(a)
	_ = c.DeliveredFrom(a)
	eng.Run()
}

func TestDeadNodeReceivesNothing(t *testing.T) {
	eng, rt := newRig(2)
	a, b := rt.Node(0), rt.Node(1)
	got := 0
	b.OnMessage = func(c *Conn, m Message) { got++ }
	c := a.Dial(1)
	c.Send(a, Message{Kind: 1, Size: 64})
	eng.Run()
	if got != 1 {
		t.Fatalf("pre-failure delivery count = %d", got)
	}
	b.Fail()
	c2 := a.Dial(1)
	c2.Send(a, Message{Kind: 1, Size: 64})
	eng.Run()
	if got != 1 {
		t.Fatal("dead node received a message")
	}
}

func TestFailMidTransferDropsDelivery(t *testing.T) {
	eng, rt := newRig(2)
	a, b := rt.Node(0), rt.Node(1)
	delivered := false
	b.OnMessage = func(c *Conn, m Message) { delivered = true }
	c := a.Dial(1)
	c.Send(a, Message{Kind: 1, Size: 5e6}) // multi-second transfer
	eng.Schedule(sim.Time(0.5), a.Fail)
	eng.Run()
	if delivered {
		t.Fatal("message delivered despite sender crashing mid-transfer")
	}
}

func TestDialUnregisteredNodeHint(t *testing.T) {
	_, rt := newRig(2)
	rt.OwnershipHint = func(id netem.NodeID) string { return "node belongs to shard 3" }
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("dial to unregistered node did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "shard 3") {
			t.Fatalf("panic %q does not carry the ownership hint", r)
		}
	}()
	rt.Node(0).Dial(9)
}
