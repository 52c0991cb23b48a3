package netem

import (
	"math"
	"testing"
	"testing/quick"

	"bulletprime/internal/sim"
)

// testNet builds an n-node network with uniform access/core parameters and
// no loss or delay unless configured afterwards.
func testNet(n int, access, core float64) (*sim.Engine, *Network) {
	eng := sim.NewEngine()
	topo := NewTopology(n)
	topo.SetUniformAccess(access, access, 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(NodeID(i), NodeID(j), core)
			}
		}
	}
	return eng, New(eng, topo, sim.NewRNG(1).Stream("net"))
}

func TestSingleTransferTiming(t *testing.T) {
	eng, net := testNet(2, Mbps(8), Mbps(8))
	f := net.NewFlow(0, 1)
	var doneAt sim.Time
	f.Start(1e6, func() { doneAt = eng.Now() })
	eng.Run()
	// 1 MB at 1 MB/s (8 Mbps); slow start delays the early bytes slightly.
	if doneAt < 1.0 || doneAt > 1.5 {
		t.Fatalf("transfer finished at %v, want ~1s (+slow start)", doneAt)
	}
}

func TestCoreLinkCapsRate(t *testing.T) {
	eng, net := testNet(2, Mbps(100), Mbps(2))
	f := net.NewFlow(0, 1)
	var doneAt sim.Time
	f.Start(250e3, func() { doneAt = eng.Now() }) // 250 KB at 250 KB/s = 1s
	eng.Run()
	if doneAt < 1.0 || doneAt > 1.6 {
		t.Fatalf("core-capped transfer finished at %v, want ~1s", doneAt)
	}
}

func TestFairSharingTwoSenders(t *testing.T) {
	// Two flows into the same receiver: each should get half the inbound
	// access link, so both finish at ~2x the solo time.
	eng, net := testNet(3, Mbps(8), Mbps(100))
	f1 := net.NewFlow(0, 2)
	f2 := net.NewFlow(1, 2)
	var t1, t2 sim.Time
	f1.Start(1e6, func() { t1 = eng.Now() })
	f2.Start(1e6, func() { t2 = eng.Now() })
	eng.Run()
	if t1 < 1.9 || t1 > 2.7 || t2 < 1.9 || t2 > 2.7 {
		t.Fatalf("shared transfers finished at %v, %v; want ~2s each", t1, t2)
	}
}

func TestMaxMinUnusedCapacityGoesToOthers(t *testing.T) {
	// Flow A is capped by a slow core link; flow B should pick up the rest
	// of the shared inbound access link (max-min, not plain 1/n split).
	eng := sim.NewEngine()
	topo := NewTopology(3)
	topo.SetUniformAccess(Mbps(10), Mbps(10), 0)
	topo.SetCoreBW(0, 2, Mbps(1))  // A: slow core
	topo.SetCoreBW(1, 2, Mbps(50)) // B: fast core
	net := New(eng, topo, sim.NewRNG(1).Stream("net"))
	a := net.NewFlow(0, 2)
	b := net.NewFlow(1, 2)
	var ta, tb sim.Time
	// A: 1 Mbps -> 125 KB/s. B should get ~9 Mbps -> 1.125 MB/s.
	a.Start(125e3, func() { ta = eng.Now() })
	b.Start(1.125e6, func() { tb = eng.Now() })
	eng.Run()
	if ta < 0.9 || ta > 1.6 {
		t.Fatalf("capped flow finished at %v, want ~1s", ta)
	}
	if tb < 0.9 || tb > 1.6 {
		t.Fatalf("max-min flow finished at %v, want ~1s (got leftover bandwidth)", tb)
	}
}

func TestSharedCoreLinkTwoFlows(t *testing.T) {
	// Two flows between the same ordered pair share the dedicated core link.
	eng, net := testNet(2, Mbps(100), Mbps(2))
	f1 := net.NewFlow(0, 1)
	f2 := net.NewFlow(0, 1)
	var t1, t2 sim.Time
	f1.Start(125e3, func() { t1 = eng.Now() }) // 125 KB at 125 KB/s = 1s
	f2.Start(125e3, func() { t2 = eng.Now() })
	eng.Run()
	if t1 < 0.9 || t1 > 1.7 || t2 < 0.9 || t2 > 1.7 {
		t.Fatalf("shared-core transfers finished at %v, %v; want ~1s each", t1, t2)
	}
}

func TestMathisCapUnderLoss(t *testing.T) {
	eng := sim.NewEngine()
	topo := NewTopology(2)
	topo.SetUniformAccess(Mbps(100), Mbps(100), 0)
	topo.SetCoreBW(0, 1, Mbps(100))
	topo.SetCoreBW(1, 0, Mbps(100))
	topo.SetCoreDelay(0, 1, MS(50))
	topo.SetCoreDelay(1, 0, MS(50))
	topo.SetCoreLoss(0, 1, 0.01)
	net := New(eng, topo, sim.NewRNG(1).Stream("net"))
	f := net.NewFlow(0, 1)
	want := MathisCap(0.1, 0.01) // ~178 KB/s
	var done sim.Time
	f.Start(want*10, func() { done = eng.Now() }) // 10 seconds worth
	eng.Run()
	if done < 9.5 || done > 12.5 {
		t.Fatalf("lossy transfer finished at %v, want ~10s (Mathis-capped)", done)
	}
}

func TestMathisFormula(t *testing.T) {
	got := MathisCap(0.2, 0.01)
	want := 1460 * math.Sqrt(1.5) / (0.2 * 0.1)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("MathisCap = %v, want %v", got, want)
	}
	if !math.IsInf(MathisCap(0.2, 0), 1) {
		t.Fatal("zero loss must be uncapped")
	}
	if !math.IsInf(MathisCap(0, 0.01), 1) {
		t.Fatal("zero RTT must be uncapped")
	}
}

func TestSlowStartCapGrows(t *testing.T) {
	rtt := 0.1
	c0 := SlowStartCap(0, rtt)
	c1 := SlowStartCap(rtt, rtt)
	c5 := SlowStartCap(5*rtt, rtt)
	if !(c0 < c1 && c1 < c5) {
		t.Fatalf("slow-start cap not increasing: %v %v %v", c0, c1, c5)
	}
	if math.Abs(c1/c0-2) > 1e-9 {
		t.Fatalf("cap should double per RTT: c0=%v c1=%v", c0, c1)
	}
	if !math.IsInf(SlowStartCap(100, rtt), 1) {
		t.Fatal("old connection should be uncapped")
	}
}

func TestBandwidthChangeMidTransfer(t *testing.T) {
	eng, net := testNet(2, Mbps(100), Mbps(8))
	f := net.NewFlow(0, 1)
	var done sim.Time
	// 2 MB at 1 MB/s would take 2s; after 1s the core drops to 0.8 Mbps
	// (100 KB/s), so the remaining ~1 MB takes ~10 more seconds.
	f.Start(2e6, func() { done = eng.Now() })
	eng.Schedule(1.0, func() {
		net.Topo.SetCoreBW(0, 1, Mbps(0.8))
		net.LinkChanged(0, 1)
	})
	eng.Run()
	if done < 9 || done > 13 {
		t.Fatalf("transfer finished at %v, want ~11s after slowdown", done)
	}
}

func TestFlowCloseAbandonsTransfer(t *testing.T) {
	eng, net := testNet(2, Mbps(8), Mbps(8))
	f := net.NewFlow(0, 1)
	fired := false
	f.Start(1e6, func() { fired = true })
	eng.Schedule(0.1, f.Close)
	eng.Run()
	if fired {
		t.Fatal("done callback fired on closed flow")
	}
	if f.Busy() {
		t.Fatal("closed flow still busy")
	}
}

func TestSequentialSegmentsFIFO(t *testing.T) {
	eng, net := testNet(2, Mbps(8), Mbps(8))
	f := net.NewFlow(0, 1)
	var order []int
	var sendNext func(i int)
	sendNext = func(i int) {
		f.Start(100e3, func() {
			order = append(order, i)
			if i < 4 {
				sendNext(i + 1)
			}
		})
	}
	sendNext(0)
	eng.Run()
	if len(order) != 5 {
		t.Fatalf("served %d segments, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order: %v", order)
		}
	}
}

func TestStartOnBusyFlowPanics(t *testing.T) {
	eng, net := testNet(2, Mbps(8), Mbps(8))
	f := net.NewFlow(0, 1)
	f.Start(1e6, nil)
	defer func() {
		if recover() == nil {
			t.Error("Start on busy flow did not panic")
		}
	}()
	f.Start(1e6, nil)
	_ = eng
}

func TestServedAccounting(t *testing.T) {
	eng, net := testNet(2, Mbps(8), Mbps(8))
	f := net.NewFlow(0, 1)
	f.Start(500e3, nil)
	eng.Run()
	if math.Abs(f.Served-500e3) > 1 {
		t.Fatalf("Served = %v, want 500000", f.Served)
	}
	if math.Abs(net.BytesServed-500e3) > 1 {
		t.Fatalf("network BytesServed = %v, want 500000", net.BytesServed)
	}
}

func TestTopologyDelays(t *testing.T) {
	topo := NewTopology(3)
	topo.SetUniformAccess(Mbps(1), Mbps(1), MS(1))
	topo.SetCoreDelay(0, 1, MS(50))
	topo.SetCoreDelay(1, 0, MS(30))
	if got, want := topo.OneWayDelay(0, 1), 0.052; math.Abs(got-want) > 1e-12 {
		t.Fatalf("OneWayDelay = %v, want %v", got, want)
	}
	if got, want := topo.RTT(0, 1), 0.052+0.032; math.Abs(got-want) > 1e-12 {
		t.Fatalf("RTT = %v, want %v", got, want)
	}
	if topo.OneWayDelay(2, 2) != 0 {
		t.Fatal("self delay must be 0")
	}
}

func TestModelNetBuildDeterministic(t *testing.T) {
	cfg := PaperDefault()
	cfg.N = 10
	a := cfg.Build(sim.NewRNG(5).Stream("topo"))
	b := cfg.Build(sim.NewRNG(5).Stream("topo"))
	for i := 0; i < cfg.N; i++ {
		for j := 0; j < cfg.N; j++ {
			if a.CoreDelay(NodeID(i), NodeID(j)) != b.CoreDelay(NodeID(i), NodeID(j)) {
				t.Fatal("same seed produced different topologies")
			}
		}
	}
}

func TestModelNetBuildRanges(t *testing.T) {
	cfg := PaperDefault()
	cfg.N = 20
	topo := cfg.Build(sim.NewRNG(9).Stream("topo"))
	for i := 0; i < cfg.N; i++ {
		if topo.AccessIn[i] != Mbps(6) || topo.AccessOut[i] != Mbps(6) {
			t.Fatal("access bandwidth wrong")
		}
		for j := 0; j < cfg.N; j++ {
			if i == j {
				continue
			}
			d := topo.CoreDelay(NodeID(i), NodeID(j))
			if d < MS(5) || d >= MS(200) {
				t.Fatalf("core delay %v out of [5ms,200ms)", d)
			}
			p := topo.CoreLoss(NodeID(i), NodeID(j))
			if p < 0 || p >= 0.03 {
				t.Fatalf("core loss %v out of [0,3%%)", p)
			}
		}
	}
}

// Property: fair-share rates never exceed caps and never oversubscribe a
// link, and every flow gets a strictly positive rate when its caps allow.
func TestPropertyFairShareFeasible(t *testing.T) {
	f := func(seed int64, nFlowsRaw uint8) bool {
		nFlows := int(nFlowsRaw%20) + 1
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		n := 6
		topo := NewTopology(n)
		for i := 0; i < n; i++ {
			topo.AccessIn[i] = rng.Uniform(1e5, 1e7)
			topo.AccessOut[i] = rng.Uniform(1e5, 1e7)
			for j := 0; j < n; j++ {
				if i != j {
					topo.SetCoreBW(NodeID(i), NodeID(j), rng.Uniform(1e5, 1e7))
				}
			}
		}
		net := New(eng, topo, rng.Stream("net"))
		var flows []*Flow
		for k := 0; k < nFlows; k++ {
			src := NodeID(rng.Intn(n))
			dst := NodeID(rng.Intn(n))
			if src == dst {
				dst = (dst + 1) % NodeID(n)
			}
			fl := net.NewFlow(src, dst)
			fl.Start(1e9, nil) // long-lived
			flows = append(flows, fl)
		}
		eng.RunUntil(1.0) // let rates converge past provisional estimates

		inUse := make([]float64, n)
		outUse := make([]float64, n)
		pairUse := make(map[int]float64)
		const tol = 1.001
		for _, fl := range flows {
			if fl.Rate() <= 0 {
				return false
			}
			cap, _, _ := fl.capNow(eng.Now())
			if fl.Rate() > cap*tol {
				return false
			}
			inUse[fl.Dst()] += fl.Rate()
			outUse[fl.Src()] += fl.Rate()
			pairUse[int(fl.Src())*n+int(fl.Dst())] += fl.Rate()
		}
		for i := 0; i < n; i++ {
			if inUse[i] > topo.AccessIn[i]*tol || outUse[i] > topo.AccessOut[i]*tol {
				return false
			}
		}
		for pair, use := range pairUse {
			src, dst := NodeID(pair/n), NodeID(pair%n)
			if use > topo.CoreBW(src, dst)*tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryJitterZeroWithoutLoss(t *testing.T) {
	eng, net := testNet(2, Mbps(8), Mbps(8))
	_ = eng
	f := net.NewFlow(0, 1)
	for i := 0; i < 100; i++ {
		if f.DeliveryJitter(16384) != 0 {
			t.Fatal("jitter on loss-free path")
		}
	}
}

func TestUnitHelpers(t *testing.T) {
	if Mbps(8) != 1e6 {
		t.Fatalf("Mbps(8) = %v, want 1e6 B/s", Mbps(8))
	}
	if Kbps(800) != 1e5 {
		t.Fatalf("Kbps(800) = %v, want 1e5 B/s", Kbps(800))
	}
	if MS(250) != 0.25 {
		t.Fatalf("MS(250) = %v, want 0.25", MS(250))
	}
}

// TestPairOutOfRangePanics: a pair outside the topology panics with an
// error that names the pair and the node count.
func TestPairOutOfRangePanics(t *testing.T) {
	topo := NewTopology(3)
	defer func() {
		err, ok := recover().(error)
		if !ok || err.Error() != "netem: pair (0,5) out of range for 3 nodes" {
			t.Fatalf("CoreBW(0, 5) on 3 nodes panicked with %v", err)
		}
	}()
	topo.CoreBW(0, 5)
}
