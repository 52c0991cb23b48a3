package netem

import (
	"math"
	"testing"
	"testing/quick"

	"bulletprime/internal/sim"
)

// Reference implementation: progressive filling by small increments. Slow
// but transparently correct — every unfrozen flow's rate rises in lockstep;
// a flow freezes when it hits its cap or any of its links saturates. The
// production waterfill must agree with it bit-for-bit up to the step size.
func referenceFairShare(topo *Topology, flows []*Flow, now sim.Time) []float64 {
	n := len(flows)
	rates := make([]float64, n)
	frozen := make([]bool, n)
	caps := make([]float64, n)
	for i, f := range flows {
		caps[i], _, _ = f.capNow(now)
	}
	// Count flows per ordered pair: dedicated core links shared by 2+
	// flows act as joint resources.
	pairCount := make(map[[2]NodeID]int)
	for _, f := range flows {
		pairCount[[2]NodeID{f.src, f.dst}]++
	}
	const step = 50.0 // bytes/sec increment
	for iter := 0; iter < 1<<22; iter++ {
		progress := false
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if rates[i]+step > caps[i] {
				frozen[i] = true
				rates[i] = caps[i]
				continue
			}
			// Would the increment oversubscribe any shared resource?
			outTotal, inTotal, pairTotal := 0.0, 0.0, 0.0
			for j, g := range flows {
				if g.src == f.src {
					outTotal += rates[j]
				}
				if g.dst == f.dst {
					inTotal += rates[j]
				}
				if g.src == f.src && g.dst == f.dst {
					pairTotal += rates[j]
				}
			}
			if outTotal+step > topo.AccessOut[f.src] || inTotal+step > topo.AccessIn[f.dst] {
				frozen[i] = true
				continue
			}
			if pairCount[[2]NodeID{f.src, f.dst}] > 1 && pairTotal+step > topo.CoreBW(f.src, f.dst) {
				frozen[i] = true
				continue
			}
			rates[i] += step
			progress = true
		}
		if !progress {
			break
		}
	}
	return rates
}

// TestWaterfillMatchesReference cross-checks the production event-based
// waterfill against the brute-force progressive filler on random networks.
func TestWaterfillMatchesReference(t *testing.T) {
	f := func(seed int64, nFlowsRaw uint8) bool {
		nFlows := int(nFlowsRaw%12) + 2
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		n := 5
		topo := NewTopology(n)
		for i := 0; i < n; i++ {
			topo.AccessIn[i] = rng.Uniform(1e5, 2e6)
			topo.AccessOut[i] = rng.Uniform(1e5, 2e6)
			for j := 0; j < n; j++ {
				if i != j {
					topo.SetCoreBW(NodeID(i), NodeID(j), rng.Uniform(1e5, 2e6))
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
			fl.Start(1e12, nil)
			flows = append(flows, fl)
		}
		// Push past slow-start so caps are static.
		eng.RunUntil(1000)

		got, _ := net.fairShare(flows, eng.Now())
		want := referenceFairShare(topo, flows, eng.Now())
		for i := range flows {
			// The reference quantizes at 50 B/s; allow that plus 0.1%.
			tol := 100.0 + got[i]*0.001
			if math.Abs(got[i]-want[i]) > tol {
				t.Logf("seed=%d flow %d: waterfill %v, reference %v", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesOracleUnderChurn drives a randomized churn workload
// — transfers of random size restarting on completion, plus periodic core
// bandwidth changes reported through LinkChanged — and at checkpoints
// asserts every active flow's rate equals one global fill over all of them
// bit-for-bit. This is the contract the component
// partitioning rests on: clean components must already hold the rates a
// fill over everything would assign.
func TestIncrementalMatchesOracleUnderChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		n := 12
		topo := NewTopology(n)
		for i := 0; i < n; i++ {
			topo.AccessIn[i] = rng.Uniform(2e5, 2e6)
			topo.AccessOut[i] = rng.Uniform(2e5, 2e6)
			for j := 0; j < n; j++ {
				if i != j {
					topo.SetCoreBW(NodeID(i), NodeID(j), rng.Uniform(1e5, 2e6))
					topo.SetCoreDelay(NodeID(i), NodeID(j), rng.Uniform(0.001, 0.1))
				}
			}
		}
		net := New(eng, topo, rng.Stream("net"))

		// Churn: 20 flow streams restarting with fresh random sizes, so
		// completions and starts dirty different components over time.
		var streams []*Flow // ascending id
		for k := 0; k < 20; k++ {
			src := NodeID(rng.Intn(n))
			dst := NodeID(rng.Intn(n))
			if src == dst {
				dst = (dst + 1) % NodeID(n)
			}
			fl := net.NewFlow(src, dst)
			streams = append(streams, fl)
			var restart func()
			restart = func() { fl.Start(rng.Uniform(5e4, 5e5), restart) }
			restart()
		}

		// Dynamics: every 300 ms, scale a random batch of 1..4 core links.
		// Odd ticks report each link via LinkChanged, even ticks report the
		// whole batch via LinksChanged, so both dirty-reporting paths face
		// the oracle. Occasionally the batch includes an access link.
		ticks := 0
		var tick func()
		tick = func() {
			ticks++
			k := 1 + rng.Intn(4)
			var batch []LinkRef
			for b := 0; b < k; b++ {
				src := NodeID(rng.Intn(n))
				dst := NodeID(rng.Intn(n))
				if src == dst {
					dst = (dst + 1) % NodeID(n)
				}
				factor := 0.5
				if rng.Float64() < 0.5 {
					factor = 1.5
				}
				topo.SetCoreBW(src, dst, topo.CoreBW(src, dst)*factor)
				batch = append(batch, LinkRef{Src: src, Dst: dst})
			}
			if rng.Float64() < 0.2 {
				i := rng.Intn(n)
				topo.AccessIn[i] *= 0.9
				batch = append(batch, InAccess(NodeID(i)))
			}
			if ticks%2 == 1 {
				for _, l := range batch {
					if l.Src < 0 || l.Dst < 0 {
						net.LinksChanged([]LinkRef{l})
					} else {
						net.LinkChanged(l.Src, l.Dst)
					}
				}
			} else {
				net.LinksChanged(batch)
			}
			eng.After(0.3, tick)
		}
		eng.After(0.3, tick)

		ok := true
		for _, at := range []sim.Time{0.8, 2.1, 4.4, 7.9} {
			eng.Schedule(at, func() {
				// Settle pending dirt, then compare against one global fill
				// over every open-and-busy flow.
				net.recompute()
				now := eng.Now()
				var active []*Flow
				for _, fl := range streams {
					if fl.open && fl.busy {
						active = append(active, fl)
					}
				}
				if len(active) == 0 {
					return
				}
				want, _ := net.fairShare(active, now)
				for i, fl := range active {
					if fl.rate != want[i] {
						t.Logf("seed=%d t=%v flow %d→%d: incremental %v, oracle %v",
							seed, now, fl.src, fl.dst, fl.rate, want[i])
						ok = false
					}
				}
			})
		}
		eng.RunUntil(10)
		if net.FlowRatesSkipped == 0 {
			t.Logf("seed=%d: incremental path never skipped a flow", seed)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLinksChangedMatchesSequentialLinkChanged pins the batching contract:
// reporting k link mutations through one LinksChanged call must leave the
// network in exactly the state k individual LinkChanged calls would — same
// rates bit-for-bit — while scheduling only one recomputation for the tick.
func TestLinksChangedMatchesSequentialLinkChanged(t *testing.T) {
	build := func() (*sim.Engine, *Topology, *Network, []*Flow) {
		rng := sim.NewRNG(11)
		eng := sim.NewEngine()
		n := 8
		topo := NewTopology(n)
		for i := 0; i < n; i++ {
			topo.AccessIn[i] = rng.Uniform(2e5, 2e6)
			topo.AccessOut[i] = rng.Uniform(2e5, 2e6)
			for j := 0; j < n; j++ {
				if i != j {
					topo.SetCoreBW(NodeID(i), NodeID(j), rng.Uniform(1e5, 2e6))
				}
			}
		}
		net := New(eng, topo, rng.Stream("net"))
		var flows []*Flow
		for k := 0; k < 24; k++ {
			src := NodeID(rng.Intn(n))
			dst := NodeID(rng.Intn(n))
			if src == dst {
				dst = (dst + 1) % NodeID(n)
			}
			f := net.NewFlow(src, dst)
			f.Start(1e12, nil)
			flows = append(flows, f)
		}
		eng.RunUntil(50) // past slow start
		return eng, topo, net, flows
	}

	mutate := func(topo *Topology) []LinkRef {
		var refs []LinkRef
		for i := 0; i < 5; i++ {
			src, dst := NodeID(i), NodeID((i+3)%8)
			topo.SetCoreBW(src, dst, topo.CoreBW(src, dst)*0.4)
			refs = append(refs, LinkRef{Src: src, Dst: dst})
		}
		topo.AccessOut[2] *= 0.5
		refs = append(refs, OutAccess(2))
		return refs
	}

	engA, topoA, netA, flowsA := build()
	refsA := mutate(topoA)
	recomputesBefore := netA.Recomputes
	netA.LinksChanged(refsA)
	engA.RunUntil(engA.Now() + 1)
	if netA.Recomputes != recomputesBefore+1 {
		t.Fatalf("batched tick ran %d recomputations, want 1",
			netA.Recomputes-recomputesBefore)
	}

	engB, topoB, netB, flowsB := build()
	for _, l := range mutate(topoB) {
		if l.Src >= 0 && l.Dst >= 0 {
			netB.LinkChanged(l.Src, l.Dst)
		} else {
			netB.LinksChanged([]LinkRef{l})
		}
	}
	engB.RunUntil(engB.Now() + 1)

	for i := range flowsA {
		if flowsA[i].Rate() != flowsB[i].Rate() {
			t.Fatalf("flow %d: batched rate %v != sequential rate %v",
				i, flowsA[i].Rate(), flowsB[i].Rate())
		}
	}
}

// TestIncrementalKeepsCleanComponentsUntouched pins the mechanism itself:
// with two disjoint flow groups, churn in one must not recompute (or
// reschedule) the other's rates.
func TestIncrementalKeepsCleanComponentsUntouched(t *testing.T) {
	eng := sim.NewEngine()
	topo := NewTopology(4)
	topo.SetUniformAccess(Mbps(8), Mbps(8), 0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				topo.SetCoreBW(NodeID(i), NodeID(j), Mbps(100))
			}
		}
	}
	net := New(eng, topo, sim.NewRNG(3).Stream("net"))
	a := net.NewFlow(0, 1) // component A: 0→1
	b := net.NewFlow(2, 3) // component B: 2→3
	a.Start(1e9, nil)
	b.Start(1e9, nil)
	eng.RunUntil(30) // past slow start; both settled at their access rate

	recomputedBefore := net.FlowRatesRecomputed
	rateB := b.Rate()
	evB := b.completion

	// Churn only component A: close and replace its flow.
	eng.Schedule(eng.Now()+1, func() {
		a.Close()
		a2 := net.NewFlow(0, 1)
		a2.Start(1e9, nil)
	})
	eng.RunUntil(35)

	if b.Rate() != rateB {
		t.Fatalf("clean component's rate changed: %v -> %v", rateB, b.Rate())
	}
	if b.completion != evB {
		t.Fatal("clean component's completion event was rescheduled")
	}
	if net.FlowRatesSkipped == 0 {
		t.Fatal("no flow rates were skipped despite a clean component")
	}
	if net.FlowRatesRecomputed == recomputedBefore {
		t.Fatal("dirty component was not recomputed")
	}
}

// TestFillSteadyStateAllocatesNothing refills one 500-flow component: once
// the scratch has reached its size, a fill allocates nothing.
func TestFillSteadyStateAllocatesNothing(t *testing.T) {
	rng := sim.NewRNG(5)
	eng := sim.NewEngine()
	const n = 120
	topo := NewTopology(n)
	topo.SetUniformAccess(Mbps(6), Mbps(6), MS(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(NodeID(i), NodeID(j), rng.Uniform(1e5, 2e6))
				topo.SetCoreDelay(NodeID(i), NodeID(j), MS(rng.Uniform(5, 100)))
				topo.SetCoreLoss(NodeID(i), NodeID(j), rng.Uniform(0, 0.02))
			}
		}
	}
	net := New(eng, topo, rng.Stream("net"))
	flows := make([]*Flow, 500)
	for k := range flows {
		src := NodeID(rng.Intn(n))
		dst := NodeID(rng.Intn(n))
		if src == dst {
			dst = (dst + 1) % n
		}
		flows[k] = net.NewFlow(src, dst)
	}
	net.fairShare(flows, 1000)
	if allocs := testing.AllocsPerRun(20, func() { net.fairShare(flows, 1000) }); allocs != 0 {
		t.Fatalf("steady-state refill of %d flows allocated %v times, want 0", len(flows), allocs)
	}
}

// parentCapNow is capNow as it was before flows sampled their path constants:
// everything read from the topology at the time of the call.
func parentCapNow(t *Topology, f *Flow, now sim.Time) (cap float64, ssBinding bool) {
	cap = t.CoreBW(f.src, f.dst)
	if cap <= 0 {
		cap = math.Inf(1)
	}
	rtt := t.RTT(f.src, f.dst)
	if m := MathisCap(rtt, t.CoreLoss(f.src, f.dst)); m < cap {
		cap = m
	}
	if ss := SlowStartCap(float64(now-f.established), rtt); ss < cap {
		cap = ss
		ssBinding = true
	}
	return cap, ssBinding
}

// TestPathConstantsFollowTopology is the epoch test: a delay or loss set
// after a flow opened reaches its cap and its delivery jitter at the next
// read, on a dense and on a compact topology, exactly as when both were read
// from the topology every time.
func TestPathConstantsFollowTopology(t *testing.T) {
	dense := NewTopology(50)
	dense.SetUniformAccess(Mbps(6), Mbps(6), MS(1))
	dense.SetCoreBW(3, 4, Mbps(2))
	dense.SetCoreDelay(3, 4, MS(20))
	dense.SetCoreDelay(4, 3, MS(30))
	dense.SetCoreLoss(3, 4, 0.01)
	for _, tc := range []struct {
		name     string
		topo     *Topology
		src, dst NodeID
	}{
		{"dense", dense, 3, 4},
		{"compact", CompactClusteredTopology(50, 25, 9), 3, 4},
	} {
		topo := tc.topo
		net := New(sim.NewEngine(), topo, sim.NewRNG(1).Stream("net"))
		ref := sim.NewRNG(1).Stream("net")
		f := net.NewFlow(tc.src, tc.dst)
		check := func(step string) {
			t.Helper()
			for _, now := range []sim.Time{0.05, 0.4, 1000} {
				got, bw, gotSS := f.capNow(now)
				want, wantSS := parentCapNow(topo, f, now)
				if math.Float64bits(got) != math.Float64bits(want) || gotSS != wantSS || bw != topo.CoreBW(f.src, f.dst) {
					t.Fatalf("%s, %s, now=%v: cap %v (ss %v), want %v (ss %v)", tc.name, step, now, got, gotSS, want, wantSS)
				}
			}
			// ref is seeded like the network's stream and drawn from in step
			// with it: once per message on a lossy path, never on a clean one.
			for k := 0; k < 20; k++ {
				want := 0.0
				if p := topo.CoreLoss(f.src, f.dst); p > 0 && ref.Float64() < p {
					want = RTO(topo.RTT(f.src, f.dst))
				}
				if got := f.DeliveryJitter(1000); got != want {
					t.Fatalf("%s, %s: delivery jitter %v, want %v", tc.name, step, got, want)
				}
			}
		}
		check("as opened")
		topo.SetCoreDelay(tc.src, tc.dst, MS(80))
		check("after SetCoreDelay")
		topo.SetCoreDelay(tc.dst, tc.src, MS(3))
		check("after SetCoreDelay on the reverse link")
		topo.SetCoreLoss(tc.src, tc.dst, 0.999)
		check("after SetCoreLoss")
		topo.SetUniformAccess(Mbps(6), Mbps(6), MS(4))
		check("after SetUniformAccess")
	}
}
