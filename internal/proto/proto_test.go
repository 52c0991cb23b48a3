package proto

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

func newRig(n int) (*sim.Engine, *Runtime) {
	eng := sim.NewEngine()
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(10), netem.Mbps(10), netem.MS(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(10))
				topo.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(10))
			}
		}
	}
	net := netem.New(eng, topo, sim.NewRNG(3).Stream("net"))
	rt := NewRuntime(eng, net)
	for i := 0; i < n; i++ {
		rt.NewNode(netem.NodeID(i))
	}
	return eng, rt
}

func TestDialAcceptDeliver(t *testing.T) {
	eng, rt := newRig(2)
	a, b := rt.Node(0), rt.Node(1)
	var accepted bool
	var got []int
	b.OnAccept = func(c *Conn) { accepted = true }
	b.OnMessage = func(c *Conn, m Message) { got = append(got, m.Kind) }
	c := a.Dial(1)
	c.Send(a, Message{Kind: 7, Size: 100})
	c.Send(a, Message{Kind: 8, Size: 100})
	eng.Run()
	if !accepted {
		t.Fatal("OnAccept did not fire")
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("delivered kinds = %v, want [7 8]", got)
	}
}

func TestInOrderDeliveryUnderJitter(t *testing.T) {
	// Heavy loss ensures DeliveryJitter fires often; ordering must hold.
	eng := sim.NewEngine()
	topo := netem.NewTopology(2)
	topo.SetUniformAccess(netem.Mbps(10), netem.Mbps(10), netem.MS(1))
	topo.SetCoreBW(0, 1, netem.Mbps(10))
	topo.SetCoreBW(1, 0, netem.Mbps(10))
	topo.SetCoreDelay(0, 1, netem.MS(20))
	topo.SetCoreDelay(1, 0, netem.MS(20))
	topo.SetCoreLoss(0, 1, 0.3)
	net := netem.New(eng, topo, sim.NewRNG(11).Stream("net"))
	rt := NewRuntime(eng, net)
	a, b := rt.NewNode(0), rt.NewNode(1)
	var got []int
	b.OnMessage = func(c *Conn, m Message) { got = append(got, m.Payload.(int)) }
	c := a.Dial(1)
	for i := 0; i < 50; i++ {
		c.Send(a, Message{Kind: 1, Size: 500, Payload: i})
	}
	eng.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery at %d: %v", i, got)
		}
	}
}

func TestHandshakeDelaysFirstByte(t *testing.T) {
	eng, rt := newRig(2)
	a, b := rt.Node(0), rt.Node(1)
	var deliveredAt sim.Time
	b.OnMessage = func(c *Conn, m Message) { deliveredAt = eng.Now() }
	c := a.Dial(1)
	c.Send(a, Message{Kind: 1, Size: 64})
	eng.Run()
	rtt := rt.Net.Topo.RTT(0, 1) // 24 ms
	oneWay := rt.Net.Topo.OneWayDelay(0, 1)
	min := sim.Time(rtt + oneWay)
	if deliveredAt < min {
		t.Fatalf("first delivery at %v, want >= %v (handshake + propagation)", deliveredAt, min)
	}
}

func TestBidirectional(t *testing.T) {
	eng, rt := newRig(2)
	a, b := rt.Node(0), rt.Node(1)
	pong := false
	b.OnMessage = func(c *Conn, m Message) { c.Send(b, Message{Kind: 2, Size: 64}) }
	a.OnMessage = func(c *Conn, m Message) { pong = m.Kind == 2 }
	c := a.Dial(1)
	c.Send(a, Message{Kind: 1, Size: 64})
	eng.Run()
	if !pong {
		t.Fatal("no pong received")
	}
}

func TestCloseDropsQueuedAndNotifiesBoth(t *testing.T) {
	eng, rt := newRig(2)
	a, b := rt.Node(0), rt.Node(1)
	var aClosed, bClosed bool
	var delivered int
	a.OnClose = func(c *Conn) { aClosed = true }
	b.OnClose = func(c *Conn) { bClosed = true }
	b.OnMessage = func(c *Conn, m Message) { delivered++ }
	c := a.Dial(1)
	for i := 0; i < 100; i++ {
		c.Send(a, Message{Kind: 1, Size: 16384})
	}
	eng.Schedule(0.05, func() { c.Close(a) })
	eng.Run()
	if !aClosed || !bClosed {
		t.Fatalf("close callbacks: a=%v b=%v, want both", aClosed, bClosed)
	}
	if delivered > 3 {
		t.Fatalf("delivered %d messages after early close, want ~0", delivered)
	}
	if a.Conns() != 0 || b.Conns() != 0 {
		t.Fatal("conn not removed from endpoints")
	}
	// Sending after close must not panic or deliver.
	c.Send(a, Message{Kind: 1, Size: 64})
	eng.Run()
}

func TestQueueIntrospection(t *testing.T) {
	eng, rt := newRig(2)
	a := rt.Node(0)
	c := a.Dial(1)
	for i := 0; i < 5; i++ {
		c.Send(a, Message{Kind: 1, Size: 16384})
	}
	// Before any serialization, all 5 are queued (none in service yet
	// because the handshake has not completed).
	if got := c.QueueLen(a); got != 5 {
		t.Fatalf("QueueLen = %d, want 5", got)
	}
	eng.Run()
	if got := c.QueueLen(a); got != 0 {
		t.Fatalf("QueueLen after drain = %d, want 0", got)
	}
	if c.DeliveredFrom(a) < 5*16384 {
		t.Fatalf("DeliveredFrom = %v, want >= %v", c.DeliveredFrom(a), 5*16384)
	}
}

func TestIdleForTracksGaps(t *testing.T) {
	eng, rt := newRig(2)
	a := rt.Node(0)
	c := a.Dial(1)
	c.Send(a, Message{Kind: 1, Size: 1000})
	eng.RunUntil(5.0)
	idle := c.IdleFor(a)
	if idle <= 0 || idle > 5 {
		t.Fatalf("IdleFor = %v, want in (0, 5]", idle)
	}
	c.Send(a, Message{Kind: 1, Size: 1e7}) // long transfer: busy
	eng.RunUntil(5.5)
	if got := c.IdleFor(a); got != 0 {
		t.Fatalf("IdleFor while busy = %v, want 0", got)
	}
}

func TestMetersCountBytes(t *testing.T) {
	eng, rt := newRig(2)
	a, b := rt.Node(0), rt.Node(1)
	c := a.Dial(1)
	c.Send(a, Message{Kind: 1, Size: 100000})
	eng.Run()
	if a.OutMeter.Total() < 100000 || b.InMeter.Total() < 100000 {
		t.Fatalf("meters: out=%v in=%v, want >= 100000", a.OutMeter.Total(), b.InMeter.Total())
	}
}

func TestControlDataAccounting(t *testing.T) {
	eng, rt := newRig(2)
	a := rt.Node(0)
	c := a.Dial(1)
	c.IsData = func(kind int) bool { return kind == 9 }
	c.Send(a, Message{Kind: 9, Size: 16384})
	c.Send(a, Message{Kind: 1, Size: 64})
	eng.Run()
	if rt.DataBytes < 16384 || rt.DataBytes > 17000 {
		t.Fatalf("DataBytes = %v", rt.DataBytes)
	}
	if rt.ControlBytes < 64 || rt.ControlBytes > 200 {
		t.Fatalf("ControlBytes = %v", rt.ControlBytes)
	}
}

func TestDialUnknownPanics(t *testing.T) {
	_, rt := newRig(2)
	defer func() {
		if recover() == nil {
			t.Error("dial to unregistered node did not panic")
		}
	}()
	rt.Node(0).Dial(99)
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Count() != 0 || b.Len() != 130 {
		t.Fatal("fresh bitmap not empty")
	}
	if !b.Set(0) || !b.Set(64) || !b.Set(129) {
		t.Fatal("Set on clear bit returned false")
	}
	if b.Set(64) {
		t.Fatal("Set on set bit returned true")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	if !b.Get(129) || b.Get(1) {
		t.Fatal("Get wrong")
	}
	cl := b.Clone()
	cl.Set(1)
	if b.Get(1) {
		t.Fatal("Clone aliases parent")
	}
}

func TestBitmapOutOfRangePanics(t *testing.T) {
	b := NewBitmap(10)
	for _, i := range []int{-1, 10} {
		for name, op := range map[string]func(int) bool{"Get": b.Get, "Set": b.Set} {
			func() {
				defer func() {
					want := fmt.Sprintf("proto: bitmap index %d out of [0,10)", i)
					if err, _ := recover().(error); err == nil || err.Error() != want {
						t.Errorf("%s(%d) panicked with %v, want %q", name, i, err, want)
					}
				}()
				op(i)
			}()
		}
	}
}

func TestBlockStoreArrivalLog(t *testing.T) {
	s := NewBlockStore(10)
	if !s.Add(3, 1.0) || !s.Add(7, 2.0) {
		t.Fatal("Add new returned false")
	}
	if s.Add(3, 3.0) {
		t.Fatal("duplicate Add returned true")
	}
	ids, cur := s.ArrivalsSince(0)
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 7 || cur != 2 {
		t.Fatalf("ArrivalsSince(0) = %v cur=%d", ids, cur)
	}
	ids, cur = s.ArrivalsSince(cur)
	if len(ids) != 0 || cur != 2 {
		t.Fatal("incremental diff not empty after catch-up")
	}
	s.Add(1, 4.0)
	ids, _ = s.ArrivalsSince(cur)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("incremental diff = %v, want [1]", ids)
	}
	if s.Missing() != 7 || s.Complete() {
		t.Fatal("missing accounting wrong")
	}
}

func TestBlockStoreForEachMissing(t *testing.T) {
	s := NewBlockStore(5)
	s.Add(1, 0)
	s.Add(3, 0)
	var got []int
	s.ForEachMissing(func(i int) bool { got = append(got, i); return true })
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("missing = %v, want %v", got, want)
		}
	}
	// Early stop.
	got = nil
	s.ForEachMissing(func(i int) bool { got = append(got, i); return false })
	if len(got) != 1 {
		t.Fatal("ForEachMissing ignored stop")
	}
}

// TestBitmapForEachSetMatchesGet pins the word walk to the per-index scan:
// every set bit, ascending, on sizes either side of a word boundary.
func TestBitmapForEachSetMatchesGet(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, n := range []int{1, 63, 64, 65, 128, 130, 500} {
		b := NewBitmap(n)
		for _, i := range rng.Perm(n)[:(n+1)/2] {
			b.Set(i)
		}
		var want, got []int
		for i := 0; i < n; i++ {
			if b.Get(i) {
				want = append(want, i)
			}
		}
		b.ForEachSet(func(i int) { got = append(got, i) })
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: ForEachSet visits %v, Get scan has %v", n, got, want)
		}
	}
}

// TestForEachMissingMatchesIndexScan pins the word walk to the scan it
// replaced — every index the store does not hold, ascending — on sizes either
// side of a word boundary and at every fill level, and with it the set of
// missing blocks UsefulTo samples (missing rank ≡ 0 mod stride).
func TestForEachMissingMatchesIndexScan(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, n := range []int{1, 5, 63, 64, 65, 127, 128, 130, 500} {
		other := NewBlockStore(n)
		for i := 0; i < n; i += 1 + rng.Intn(3) {
			other.Add(i, 0)
		}
		sum := NewSummary(other)
		s := NewBlockStore(n)
		for _, b := range rng.Perm(n) {
			var want []int
			for i := 0; i < n; i++ {
				if !s.Have(i) {
					want = append(want, i)
				}
			}
			var got []int
			s.ForEachMissing(func(i int) bool { got = append(got, i); return true })
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d held=%d: missing %v, index scan has %v", n, s.Count(), got, want)
			}
			const sampleMax = 8
			stride, seen, hits := len(want)/sampleMax+1, 0, 0
			for rank, i := range want {
				if rank%stride == 0 {
					seen++
					if sum.MayHave(i) {
						hits++
					}
				}
			}
			est := math.Min(float64(hits)/float64(seen)*float64(len(want)), float64(sum.Count))
			if got := sum.UsefulTo(s, sampleMax); got != est {
				t.Fatalf("n=%d held=%d: UsefulTo %v, sampling the index scan gives %v", n, s.Count(), got, est)
			}
			s.Add(b, 0)
		}
	}
}

func TestSummaryNoFalseNegatives(t *testing.T) {
	f := func(blocks []uint16) bool {
		s := NewBlockStore(65536)
		for _, b := range blocks {
			s.Add(int(b), 0)
		}
		sum := NewSummary(s)
		for _, b := range blocks {
			if !sum.MayHave(int(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryUsefulTo(t *testing.T) {
	full := NewBlockStore(1000)
	for i := 0; i < 1000; i++ {
		full.Add(i, 0)
	}
	empty := NewBlockStore(1000)
	sum := NewSummary(full)
	useful := sum.UsefulTo(empty, 64)
	if useful < 900 {
		t.Fatalf("full node useful estimate = %v, want ~1000", useful)
	}
	// A node with nothing is useful to nobody.
	sumEmpty := NewSummary(empty)
	if got := sumEmpty.UsefulTo(full, 64); got != 0 {
		t.Fatalf("empty summary useful = %v, want 0", got)
	}
	// Disjoint halves: first-half holder is ~fully useful to second-half holder.
	firstHalf := NewBlockStore(1000)
	secondHalf := NewBlockStore(1000)
	for i := 0; i < 500; i++ {
		firstHalf.Add(i, 0)
		secondHalf.Add(i+500, 0)
	}
	est := NewSummary(firstHalf).UsefulTo(secondHalf, 64)
	if math.Abs(est-500) > 150 {
		t.Fatalf("disjoint useful estimate = %v, want ~500", est)
	}
}

func TestSummaryCapsAtCount(t *testing.T) {
	one := NewBlockStore(1000)
	one.Add(42, 0)
	empty := NewBlockStore(1000)
	if got := NewSummary(one).UsefulTo(empty, 1000); got > 1 {
		t.Fatalf("useful estimate %v exceeds holder count 1", got)
	}
}
