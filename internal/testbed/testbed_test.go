package testbed

import (
	"testing"
	"time"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

func TestClockMapping(t *testing.T) {
	c := NewClock(100) // 100 virtual seconds per wall second
	c.Start(7)
	time.Sleep(20 * time.Millisecond)
	now := c.Now()
	if now < 7+1 || now > 7+60 {
		t.Fatalf("after 20ms wall at rate 100, virtual now = %v, want ~9", now)
	}
	if w := c.WallUntil(now + 100); w < 500*time.Millisecond || w > 1100*time.Millisecond {
		t.Fatalf("WallUntil(+100 virtual) = %v, want ~1s", w)
	}
	if v := c.Virtual(time.Second); v != 100 {
		t.Fatalf("Virtual(1s) = %v, want 100", v)
	}
}

// rig builds a transport-backed runtime over n loopback nodes.
func rig(t *testing.T, n int, cfg Config, rate float64) (*sim.Engine, *proto.Runtime, *Transport, *Clock) {
	t.Helper()
	eng := sim.NewEngine()
	rt := proto.NewRuntime(eng, nil)
	nodes := make([]netem.NodeID, n)
	for i := range nodes {
		nodes[i] = netem.NodeID(i)
		rt.NewNode(nodes[i])
	}
	clock := NewClock(rate)
	tr, err := New(clock, cfg, nodes)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(tr.Stop)
	rt.Transport = tr
	return eng, rt, tr, clock
}

func TestLoopbackDeliveryInOrder(t *testing.T) {
	eng, rt, tr, clock := rig(t, 2, Config{}, 1)
	a, b := rt.Node(0), rt.Node(1)
	var accepted bool
	var got []int
	b.OnAccept = func(c *proto.Conn) { accepted = true }
	b.OnMessage = func(c *proto.Conn, m proto.Message) { got = append(got, m.Payload.(int)) }

	c := a.Dial(1)
	const N = 40
	for i := 0; i < N; i++ {
		c.Send(a, proto.Message{Kind: 1, Size: 500, Payload: i})
	}
	Run(eng, tr, clock, 30, func() bool { return len(got) == N && c.QueueLen(a) == 0 }, nil)
	if !accepted {
		t.Fatal("SYN never fired OnAccept")
	}
	if len(got) != N {
		t.Fatalf("delivered %d/%d messages", len(got), N)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery at %d: %v", i, got)
		}
	}
	if c.QueueLen(a) != 0 {
		t.Fatalf("QueueLen after full ack = %d, want 0", c.QueueLen(a))
	}
}

func TestLossRecoveryDeterministicSeed(t *testing.T) {
	// 20% injected loss on every transmission attempt; the reliable link
	// must still deliver everything, through retransmission.
	cfg := Config{DropProb: 0.2, DropSeed: 42, RTO: 0.01}
	eng, rt, tr, clock := rig(t, 2, cfg, 1)
	a, b := rt.Node(0), rt.Node(1)
	var got []int
	b.OnMessage = func(c *proto.Conn, m proto.Message) { got = append(got, m.Payload.(int)) }

	c := a.Dial(1)
	const N = 60
	for i := 0; i < N; i++ {
		c.Send(a, proto.Message{Kind: 1, Size: 300, Payload: i})
	}
	Run(eng, tr, clock, 60, func() bool { return len(got) == N }, nil)
	if len(got) != N {
		t.Fatalf("delivered %d/%d under 20%% loss (stats %+v)", len(got), N, tr.Stats())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("loss recovery broke ordering at %d: %v", i, got)
		}
	}
	st := tr.Stats()
	if st.InjectedDrops == 0 || st.Retransmits == 0 {
		t.Fatalf("loss was not exercised: stats %+v", st)
	}
}

func TestRetryExhaustionAbortsConn(t *testing.T) {
	// Total loss: every transmission is dropped, so retries exhaust and
	// both endpoints observe the crashed-peer signal.
	cfg := Config{DropProb: 1.0, DropSeed: 1, RTO: 0.002, MaxRetries: 3}
	eng, rt, tr, clock := rig(t, 2, cfg, 1)
	a, b := rt.Node(0), rt.Node(1)
	var aClosed, bClosed bool
	a.OnClose = func(*proto.Conn) { aClosed = true }
	b.OnClose = func(*proto.Conn) { bClosed = true }

	c := a.Dial(1)
	c.Send(a, proto.Message{Kind: 1, Size: 100, Payload: 1})
	Run(eng, tr, clock, 30, func() bool { return aClosed && bClosed }, nil)
	if !aClosed || !bClosed {
		t.Fatalf("retry exhaustion did not abort (closed %v/%v, stats %+v)", aClosed, bClosed, tr.Stats())
	}
	if tr.Stats().AbortedConns == 0 {
		t.Fatalf("AbortedConns = 0, want > 0 (stats %+v)", tr.Stats())
	}
	_ = c
}

func TestVirtualTimersFireOnWallClock(t *testing.T) {
	// A protocol timer chain at virtual 50 ms cadence under a 10x clock:
	// 10 ticks are 500 ms virtual = ~50 ms wall.
	eng, _, tr, clock := rig(t, 2, Config{}, 10)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if ticks < 10 {
			eng.After(0.05, tick)
		}
	}
	eng.After(0.05, tick)
	start := time.Now()
	Run(eng, tr, clock, 30, func() bool { return ticks >= 10 }, nil)
	if ticks != 10 {
		t.Fatalf("fired %d ticks, want 10", ticks)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("10 virtual ticks at 10x took %v wall, want well under 2s", wall)
	}
	if eng.Now() < 0.5 {
		t.Fatalf("engine reached %v virtual, want >= 0.5", eng.Now())
	}
}

func TestStopEndsRunEarly(t *testing.T) {
	eng, _, tr, clock := rig(t, 2, Config{}, 1)
	calls := 0
	stopped := Run(eng, tr, clock, 3600, func() bool { return false }, func() bool {
		calls++
		return calls > 3
	})
	if !stopped {
		t.Fatal("Run did not report the stop")
	}
	if eng.Now() >= 3600 {
		t.Fatal("stop did not end the run before the deadline")
	}
}

func TestDeadlineBoundsVirtualTime(t *testing.T) {
	eng, _, tr, clock := rig(t, 2, Config{}, 1000)
	// Rate 1000: a virtual deadline of 2 s is ~2 ms wall.
	stopped := Run(eng, tr, clock, 2, func() bool { return false }, nil)
	if stopped {
		t.Fatal("deadline exit misreported as a stop")
	}
	if eng.Now() != 2 {
		t.Fatalf("engine ended at %v, want exactly the deadline 2", eng.Now())
	}
}
