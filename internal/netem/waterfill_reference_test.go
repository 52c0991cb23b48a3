package netem

import (
	"math"
	"testing"
	"testing/quick"

	"bulletprime/internal/sim"
)

// fairShare is a fresh fill of active at now: their max-min fair rates,
// valid until the next fill, and whether any slow-start cap was binding. It
// records nothing, so a check may call it mid-run without moving what the
// network's next refill compares with; every refill, reused or not, must
// return its rates bit for bit.
func (n *Network) fairShare(active []*Flow, now sim.Time) (rates []float64, anySS bool) {
	in, anySS, _ := n.sample(active, now, false)
	return n.fill.rates(in, n.Topo.AccessOut, n.Topo.AccessIn), anySS
}

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

// TestReusedFillMatchesFreshFill is the oracle for fill reuse (DESIGN.md
// §3.4): after every recomputation of a randomized run, each component it
// refilled must hold, bit for bit, the rates a fresh fill over its flows
// assigns, whether its refill reused the last fill or ran one. The run has
// what can move a fill's input, each reported the way the harness reports
// it: transfers that start their next segment the instant one finishes (the
// reuse path) or after a pause (which dissolves their component), core
// bandwidth changes through SetCoreBW and LinkChanged, inbound access
// capacities written directly and reported through LinksChanged, SetCoreLoss
// (a topology epoch, so Mathis caps move), and flows opened mid-run in slow
// start. Three core links carry two transfers each on a lossy path, so their
// shared core bandwidth binds below an unmoved Mathis cap: a change to it
// moves rates and nothing else the fill reads.
//
// The test also predicts, from the records it saw after the previous
// recomputation, which refills must reuse, and holds FillsReused and
// FlowRatesReused to that; and it requires the seeds together to reuse fills
// and to refill an undissolved component only because an access capacity
// moved.
func TestReusedFillMatchesFreshFill(t *testing.T) {
	type record struct {
		fills uint8
		key   fillKey
	}
	var reusedTotal, accessOnly uint64
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		const n, general = 30, 24 // nodes 24..29 form the three lossy pairs
		topo := NewTopology(n)
		for i := 0; i < n; i++ {
			topo.AccessIn[i] = rng.Uniform(2e5, 2e6)
			topo.AccessOut[i] = rng.Uniform(2e5, 2e6)
			if i >= general {
				topo.AccessIn[i], topo.AccessOut[i] = 4e6, 4e6
			}
			for j := 0; j < n; j++ {
				if i != j {
					topo.SetCoreBW(NodeID(i), NodeID(j), rng.Uniform(1e5, 2e6))
					topo.SetCoreDelay(NodeID(i), NodeID(j), rng.Uniform(0.001, 0.05))
				}
			}
		}
		type lossyPair struct {
			src, dst NodeID
			mathis   float64
		}
		var pairs []lossyPair
		for src := NodeID(general); src < n; src += 2 {
			dst := src + 1
			topo.SetCoreDelay(src, dst, 0.02)
			topo.SetCoreDelay(dst, src, 0.02)
			topo.SetCoreLoss(src, dst, 0.01)
			m := MathisCap(topo.RTT(src, dst), 0.01)
			topo.SetCoreBW(src, dst, 1.5*m) // two flows get 0.75 m each
			pairs = append(pairs, lossyPair{src, dst, m})
		}
		net := New(eng, topo, rng.Stream("net"))
		generalPair := func() (NodeID, NodeID) {
			src, dst := NodeID(rng.Intn(general)), NodeID(rng.Intn(general))
			if src == dst {
				dst = (dst + 1) % general
			}
			return src, dst
		}

		var streams []*Flow
		for k := 0; k < 24+2*len(pairs); k++ {
			var fl *Flow
			if k < 24 {
				fl = net.NewFlow(generalPair())
			} else {
				p := pairs[(k-24)/2]
				fl = net.NewFlow(p.src, p.dst)
			}
			streams = append(streams, fl)
			var next func()
			next = func() {
				if k < 24 && rng.Float64() < 0.1 {
					eng.After(rng.Uniform(0.01, 0.3), func() { fl.Start(rng.Uniform(5e4, 5e5), next) })
					return
				}
				fl.Start(rng.Uniform(5e4, 5e5), next)
			}
			fl.Start(rng.Uniform(5e4, 5e5), next)
		}

		var tick func()
		tick = func() {
			fl := streams[rng.Intn(24)]
			switch rng.Intn(5) {
			case 0:
				factor := 0.5
				if rng.Float64() < 0.5 {
					factor = 1.5
				}
				topo.SetCoreBW(fl.src, fl.dst, topo.CoreBW(fl.src, fl.dst)*factor)
				net.LinkChanged(fl.src, fl.dst)
			case 1:
				topo.AccessIn[fl.dst] *= 0.9
				net.LinksChanged([]LinkRef{InAccess(fl.dst)})
			case 2:
				p := pairs[rng.Intn(len(pairs))]
				bw := 1.5 * p.mathis
				if topo.CoreBW(p.src, p.dst) == bw {
					bw = 2.25 * p.mathis // two flows hit the Mathis cap instead
				}
				topo.SetCoreBW(p.src, p.dst, bw)
				net.LinkChanged(p.src, p.dst)
			case 3:
				topo.SetCoreLoss(fl.src, fl.dst, rng.Uniform(0, 0.02))
				net.LinkChanged(fl.src, fl.dst)
			case 4:
				g := net.NewFlow(generalPair())
				left := 3
				var next func()
				next = func() {
					if left--; left == 0 {
						g.Close()
						return
					}
					g.Start(rng.Uniform(5e4, 5e5), next)
				}
				next()
			}
			eng.After(0.1, tick)
		}
		eng.After(0.1, tick)

		ok := true
		records := map[*Flow]record{}
		recomputes, reused, ratesReused := net.Recomputes, net.FillsReused, net.FlowRatesReused
		stepUntil(eng, 10, func() {
			if net.Recomputes == recomputes {
				return
			}
			recomputes = net.Recomputes
			now := eng.Now()
			wantReused, wantRates := uint64(0), uint64(0)
			for i := range net.part.comps {
				c := &net.part.comps[i]
				if len(c.flows) == 0 || c.flows[0].lastUpdate != now {
					continue // a free slot, or a clean component
				}
				want, _ := net.fairShare(c.flows, now)
				for j, fl := range c.flows {
					if math.Float64bits(fl.rate) != math.Float64bits(want[j]) {
						t.Logf("seed=%d t=%v flow %d→%d: refill %v, fresh fill %v",
							seed, now, fl.src, fl.dst, fl.rate, want[j])
						ok = false
					}
				}
				// Refilled at fills 2, the component was not dissolved; it
				// was recorded if it was at fills 2 before as well.
				if prev, seen := records[c.flows[0]]; c.fills == 2 && seen && prev.fills == 2 {
					moved, access := false, true
					for _, fl := range c.flows {
						if k := records[fl].key; k != fl.fillKey {
							moved = true
							access = access && k[0] == fl.fillKey[0] && k[1] == fl.fillKey[1]
						}
					}
					switch {
					case !moved:
						wantReused++
						wantRates += uint64(len(c.flows))
					case access:
						accessOnly++
					}
				}
			}
			if net.FillsReused-reused != wantReused || net.FlowRatesReused-ratesReused != wantRates {
				t.Logf("seed=%d t=%v: %d fills and %d rates reused, want %d and %d", seed, now,
					net.FillsReused-reused, net.FlowRatesReused-ratesReused, wantReused, wantRates)
				ok = false
			}
			reused, ratesReused = net.FillsReused, net.FlowRatesReused
			clear(records)
			for i := range net.part.comps {
				c := &net.part.comps[i]
				for _, fl := range c.flows {
					records[fl] = record{c.fills, fl.fillKey}
				}
			}
		})
		reusedTotal += net.FillsReused
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
	if reusedTotal == 0 || accessOnly == 0 {
		t.Fatalf("%d fills reused and %d undissolved components refilled for an access capacity alone; "+
			"the run must exercise both", reusedTotal, accessOnly)
	}
	t.Logf("%d fills reused, %d refilled for an access capacity alone", reusedTotal, accessOnly)
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
