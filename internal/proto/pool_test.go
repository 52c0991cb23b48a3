package proto

// Guard tests for the runtime's message-node pool: the pooled hot path must
// never double-free a node, never let a reclaimed node alias a queued
// message, and must reclaim nodes on every exit path (delivery, connection
// close, crash).

import (
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// poolRig builds a two-node runtime on a uniform topology.
func poolRig(t *testing.T) (*sim.Engine, *Runtime, *Node, *Node) {
	t.Helper()
	eng := sim.NewEngine()
	topo := netem.NewTopology(2)
	topo.SetUniformAccess(netem.Mbps(10), netem.Mbps(10), netem.MS(1))
	topo.SetCoreBW(0, 1, netem.Mbps(10))
	topo.SetCoreBW(1, 0, netem.Mbps(10))
	topo.SetCoreDelay(0, 1, netem.MS(5))
	topo.SetCoreDelay(1, 0, netem.MS(5))
	net := netem.New(eng, topo, sim.NewRNG(1).Stream("net"))
	rt := NewRuntime(eng, net)
	return eng, rt, rt.NewNode(0), rt.NewNode(1)
}

func TestMsgPoolDoubleFreePanics(t *testing.T) {
	_, rt, _, _ := poolRig(t)
	n := rt.getMsg(Message{Kind: 1, Size: 100})
	rt.putMsg(n)
	defer func() {
		if recover() == nil {
			t.Fatal("double putMsg did not panic")
		}
	}()
	rt.putMsg(n)
}

func TestMsgPoolReclaimedOnDelivery(t *testing.T) {
	eng, rt, a, b := poolRig(t)
	delivered := 0
	b.OnMessage = func(c *Conn, m Message) { delivered++ }
	conn := a.Dial(b.ID)
	for i := 0; i < 50; i++ {
		conn.Send(a, Message{Kind: 1, Size: 2000})
	}
	eng.RunUntil(60)
	if delivered != 50 {
		t.Fatalf("delivered %d messages, want 50", delivered)
	}
	if rt.msgLen == 0 {
		t.Fatal("no message nodes returned to the pool after delivery")
	}
	// Steady state: a second burst must reuse pooled nodes, not grow the
	// population. Pool length after the burst equals the length before it.
	before := rt.msgLen
	for i := 0; i < 50; i++ {
		conn.Send(a, Message{Kind: 1, Size: 2000})
	}
	eng.RunUntil(120)
	if rt.msgLen != before {
		t.Fatalf("pool grew from %d to %d nodes; steady state must reuse", before, rt.msgLen)
	}
}

// TestMsgPoolUseAfterReturn pins the ownership rule: the Message value
// (including its Payload reference) handed to OnMessage stays valid after
// the node returns to the pool and is reused by later sends.
func TestMsgPoolUseAfterReturn(t *testing.T) {
	eng, _, a, b := poolRig(t)
	type payload struct{ id int }
	var got []*payload
	b.OnMessage = func(c *Conn, m Message) {
		got = append(got, m.Payload.(*payload))
		if len(got) == 1 {
			// Reuse the just-reclaimed node immediately from inside the
			// delivery callback.
			c.Send(b, Message{Kind: 2, Size: 100, Payload: &payload{id: 100}})
		}
	}
	conn := a.Dial(b.ID)
	conn.Send(a, Message{Kind: 1, Size: 100, Payload: &payload{id: 1}})
	conn.Send(a, Message{Kind: 1, Size: 100, Payload: &payload{id: 2}})
	eng.RunUntil(30)
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(got))
	}
	if got[0].id != 1 || got[1].id != 2 {
		t.Fatalf("payloads corrupted by node reuse: got ids %d,%d want 1,2", got[0].id, got[1].id)
	}
}

// TestMsgPoolReclaimedOnClose checks that closing a connection with a deep
// send queue reclaims every queued node instead of leaking it.
func TestMsgPoolReclaimedOnClose(t *testing.T) {
	eng, rt, a, b := poolRig(t)
	conn := a.Dial(b.ID)
	for i := 0; i < 40; i++ {
		conn.Send(a, Message{Kind: 1, Size: 16 * 1024})
	}
	eng.RunUntil(0.01) // handshake not yet complete; queue still full
	conn.Close(a)
	if rt.msgLen < 39 {
		t.Fatalf("only %d nodes reclaimed from a 40-deep closed queue", rt.msgLen)
	}
	if got := conn.QueueBytes(a); got != 0 {
		t.Fatalf("QueueBytes = %v after close, want 0", got)
	}
}

// TestMsgPoolSurvivesCrash drives the churn path: failing a node mid-burst
// tears down connections with queued and in-flight messages; the pool and
// queues must stay consistent and later traffic must still work.
func TestMsgPoolSurvivesCrash(t *testing.T) {
	eng, rt, a, b := poolRig(t)
	delivered := 0
	b.OnMessage = func(c *Conn, m Message) { delivered++ }
	conn := a.Dial(b.ID)
	for i := 0; i < 20; i++ {
		conn.Send(a, Message{Kind: 1, Size: 64 * 1024})
	}
	eng.Schedule(0.5, a.Fail)
	eng.RunUntil(30)
	if !conn.Closed() {
		t.Fatal("connection survived the crash")
	}
	if rt.msgLen == 0 {
		t.Fatal("crash leaked every queued message node")
	}
	// The runtime must still behave after the crash.
	delivered = 0
	c2 := b.Dial(a.ID) // dialing a crashed node yields a pre-closed conn
	if !c2.Closed() {
		t.Fatal("dial to crashed node must return a closed conn")
	}
	c2.Send(b, Message{Kind: 1, Size: 100}) // dropped silently, no panic
	if delivered != 0 {
		t.Fatal("closed conn delivered")
	}
}

// TestDeepQueueStaysFIFO interleaves bursts of sends with partial runs so
// one direction's queue stays deep while the pump drains it: delivery stays
// in send order, and QueueLen always equals the messages sent minus those
// fully serialized (which the sender's OutMeter counts).
func TestDeepQueueStaysFIFO(t *testing.T) {
	eng, _, a, b := poolRig(t)
	const size = 16 * 1024
	var got []int
	b.OnMessage = func(c *Conn, m Message) { got = append(got, m.Payload.(int)) }
	conn := a.Dial(b.ID)
	rng := sim.NewRNG(3)
	sent, deepest := 0, 0
	for round := 0; round < 60; round++ {
		for k := rng.Intn(12); k > 0; k-- {
			conn.Send(a, Message{Kind: 1, Size: size, Payload: sent})
			sent++
		}
		eng.RunUntil(eng.Now() + sim.Time(rng.Float64()*0.1))
		serialized := int(a.OutMeter.Total() / size)
		if q := conn.QueueLen(a); q != sent-serialized {
			t.Fatalf("round %d: QueueLen = %d, want %d sent - %d serialized", round, q, sent, serialized)
		}
		deepest = max(deepest, sent-serialized)
	}
	if deepest < 50 {
		t.Fatalf("queue never got deep: at most %d messages waiting", deepest)
	}
	eng.RunUntil(eng.Now() + 60)
	if len(got) != sent || conn.QueueLen(a) != 0 {
		t.Fatalf("delivered %d of %d, QueueLen %d after draining", len(got), sent, conn.QueueLen(a))
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("delivery %d carried message %d: queue reordered", i, id)
		}
	}
}

// TestCloseReturnsEveryQueuedNode fills both directions of a connection
// from a warm pool and closes it before anything is on the wire: every
// queued node goes back to the pool exactly once (the pool's double-free
// guard panics on a second return, and a lost link returns too few).
func TestCloseReturnsEveryQueuedNode(t *testing.T) {
	eng, rt, a, b := poolRig(t)
	warm := a.Dial(b.ID)
	for i := 0; i < 300; i++ {
		warm.Send(a, Message{Kind: 1, Size: 1000})
	}
	eng.RunUntil(10)
	start := rt.msgLen
	if start != 300 {
		t.Fatalf("pool holds %d nodes after delivering 300 messages", start)
	}
	conn := a.Dial(b.ID)
	for i := 0; i < 200; i++ {
		conn.Send(a, Message{Kind: 1, Size: 1000})
	}
	for i := 0; i < 100; i++ {
		conn.Send(b, Message{Kind: 1, Size: 1000})
	}
	if conn.QueueLen(a) != 200 || conn.QueueLen(b) != 100 || rt.msgLen != 0 {
		t.Fatalf("queued %d and %d with %d nodes pooled, want 200, 100 and 0",
			conn.QueueLen(a), conn.QueueLen(b), rt.msgLen)
	}
	conn.Close(a)
	if rt.msgLen != start {
		t.Fatalf("pool holds %d nodes after close, want %d", rt.msgLen, start)
	}
	if conn.QueueLen(a) != 0 || conn.QueueLen(b) != 0 {
		t.Fatalf("QueueLen %d and %d after close, want 0", conn.QueueLen(a), conn.QueueLen(b))
	}
}
