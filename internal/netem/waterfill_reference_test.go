package netem

import (
	"fmt"
	"math"
	"sort"
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
		caps[i], _ = f.capNow(now)
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
// bandwidth changes reported through LinkChanged — in incremental mode, and
// at checkpoints asserts every active flow's rate equals the brute-force
// global waterfill bit-for-bit. This is the contract the component
// partitioning rests on: clean components must already hold the rates the
// full pass would assign.
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
		if net.FullRecompute {
			t.Fatal("incremental mode must be the default")
		}

		// Churn: 20 flow streams restarting with fresh random sizes, so
		// completions and starts dirty different components over time.
		for k := 0; k < 20; k++ {
			src := NodeID(rng.Intn(n))
			dst := NodeID(rng.Intn(n))
			if src == dst {
				dst = (dst + 1) % NodeID(n)
			}
			fl := net.NewFlow(src, dst)
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
				// Settle pending dirt, then compare against the global
				// brute-force pass over all active flows.
				net.recompute()
				now := eng.Now()
				active := make([]*Flow, 0, net.part.total)
				for _, fl := range net.part.allFlows() {
					if fl.open && fl.busy {
						active = append(active, fl)
					}
				}
				sort.Slice(active, func(i, j int) bool { return active[i].id < active[j].id })
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

// scanFairShare is the scan-per-round filler the production fairShare must
// equal bit for bit: resources numbered on first encounter over the flows
// (out-access, in-access, then a core link shared by two or more flows), a
// min-scan for the next cap, a min-scan for the next saturation that keeps
// the lowest resource number on ties, the eps band frozen in ascending flow
// index, and frozenUse accumulated in freeze order.
func scanFairShare(topo *Topology, active []*Flow, now sim.Time) []float64 {
	type scanResource struct {
		cap, frozenUse float64
		nUnfrozen      int
		flows          []int
	}
	nf := len(active)
	rates := make([]float64, nf)
	caps := make([]float64, nf)
	frozen := make([]bool, nf)
	flowRes := make([][]int, nf)
	var resources []*scanResource
	resIdx := make(map[int]int)
	add := func(key int, capacity float64, fi int) {
		ri, ok := resIdx[key]
		if !ok {
			ri = len(resources)
			resources = append(resources, &scanResource{cap: capacity})
			resIdx[key] = ri
		}
		resources[ri].nUnfrozen++
		resources[ri].flows = append(resources[ri].flows, fi)
		flowRes[fi] = append(flowRes[fi], ri)
	}
	nn := topo.N
	pairCount := make(map[int]int)
	for _, f := range active {
		pairCount[int(f.src)*nn+int(f.dst)]++
	}
	for i, f := range active {
		caps[i], _ = f.capNow(now)
		add(int(f.src), topo.AccessOut[f.src], i)
		add(nn+int(f.dst), topo.AccessIn[f.dst], i)
		if pair := int(f.src)*nn + int(f.dst); pairCount[pair] > 1 {
			if bw := topo.CoreBW(f.src, f.dst); bw > 0 {
				add(2*nn+pair, bw, i)
			}
		}
	}
	unfrozen := nf
	freeze := func(fi int, rate float64) {
		frozen[fi] = true
		rates[fi] = rate
		unfrozen--
		for _, ri := range flowRes[fi] {
			resources[ri].nUnfrozen--
			resources[ri].frozenUse += rate
		}
	}
	const eps = 1e-9
	for unfrozen > 0 {
		minCap := math.Inf(1)
		for i := range caps {
			if !frozen[i] && caps[i] < minCap {
				minCap = caps[i]
			}
		}
		minSat, satRes := math.Inf(1), -1
		for ri, r := range resources {
			if r.nUnfrozen == 0 {
				continue
			}
			headroom := r.cap - r.frozenUse
			if headroom < 0 {
				headroom = 0
			}
			if sat := headroom / float64(r.nUnfrozen); satRes < 0 || sat < minSat {
				minSat, satRes = sat, ri
			}
		}
		switch {
		case minCap <= minSat+eps && !math.IsInf(minCap, 1):
			for i := range caps {
				if !frozen[i] && caps[i] <= minCap+eps {
					freeze(i, caps[i])
				}
			}
		case satRes >= 0 && !math.IsInf(minSat, 1):
			for _, fi := range resources[satRes].flows {
				if !frozen[fi] {
					freeze(fi, math.Min(minSat, caps[fi]))
				}
			}
		default:
			for i := range frozen {
				if !frozen[i] {
					freeze(i, 1e12)
				}
			}
		}
	}
	return rates
}

// fillCase is one generated input of TestFillMatchesScanBitForBit.
type fillCase struct {
	net   *Network
	flows []*Flow
	now   sim.Time
}

// genFillCase draws a fill that crowds the places where bit-exactness is
// decided. Access capacities come from a handful of values (so saturation
// levels tie exactly across links), now and then scaled to zero or below;
// core bandwidths are unset (an infinite cap), drawn from the same handful
// of fractions, or placed within a few 1e-10 of a level some link saturates
// at, on either side — a cap just above a level freezes first and lowers a
// neighbour's saturation level, the case the production heap must push for;
// nodes are few, so ordered pairs repeat; a third of the cases run inside the
// slow-start ramp, and a third have lossy links.
func genFillCase(seed int64) fillCase {
	rng := sim.NewRNG(seed)
	nFlows := 2 + rng.Intn(399)
	if seed%3 == 0 {
		nFlows = 2 + rng.Intn(30)
	}
	n := 3 + rng.Intn(3+nFlows/4)
	topo := NewTopology(n)
	bases := []float64{600000, 750000, 1e6, 1e6 / 3}
	uniform := rng.Float64() < 0.5
	base := bases[rng.Intn(len(bases))]
	pick := func() float64 {
		if uniform {
			return base
		}
		return bases[rng.Intn(len(bases))]
	}
	nudges := []float64{0, 0, 3e-10, -3e-10, 8e-10, -8e-10, 1.5e-9, -1.5e-9}
	lossy := seed%3 == 1
	for i := 0; i < n; i++ {
		topo.AccessIn[i], topo.AccessOut[i] = pick(), pick()
		switch rng.Intn(25) {
		case 0:
			topo.AccessIn[i] = 0
		case 1:
			topo.AccessOut[i] = 0
		case 2:
			topo.AccessOut[i] = -1
		}
		topo.AccessDelay[i] = MS(rng.Uniform(0, 2))
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			src, dst := NodeID(i), NodeID(j)
			switch rng.Intn(4) {
			case 0: // unset: no core cap
			case 1:
				topo.SetCoreBW(src, dst, pick()/float64(1+rng.Intn(6)))
			default:
				topo.SetCoreBW(src, dst, pick()/float64(1+rng.Intn(6))+nudges[rng.Intn(len(nudges))])
			}
			topo.SetCoreDelay(src, dst, MS(rng.Uniform(1, 150)))
			if lossy && rng.Float64() < 0.4 {
				topo.SetCoreLoss(src, dst, rng.Uniform(0, 0.03))
			}
		}
	}
	eng := sim.NewEngine()
	net := New(eng, topo, rng.Stream("net"))
	flows := make([]*Flow, nFlows)
	for k := range flows {
		src := NodeID(rng.Intn(n))
		dst := NodeID(rng.Intn(n))
		if src == dst {
			dst = (dst + 1) % NodeID(n)
		}
		flows[k] = net.NewFlow(src, dst)
	}
	now := sim.Time(1000) // past every slow start
	if seed%3 == 2 {
		now = sim.Time(rng.Uniform(0.05, 1.5)) // inside the ramp on the longer paths
	}
	return fillCase{net, flows, now}
}

// craftedFillCase builds flows src→dst over uniform 600 kB/s access links with
// the given core bandwidths, past slow start and without loss, so each
// flow's cap is exactly its bandwidth.
func craftedFillCase(pairs [][2]NodeID, bw []float64) fillCase {
	const n = 8
	topo := NewTopology(n)
	topo.SetUniformAccess(600000, 600000, MS(1))
	net := New(sim.NewEngine(), topo, sim.NewRNG(1).Stream("net"))
	flows := make([]*Flow, len(pairs))
	for k, p := range pairs {
		topo.SetCoreBW(p[0], p[1], bw[k])
		topo.SetCoreDelay(p[0], p[1], MS(10))
		flows[k] = net.NewFlow(p[0], p[1])
	}
	return fillCase{net, flows, 1000}
}

// TestFillMatchesScanBitForBit pins the production fill to the scan-per-round
// filler: every rate has the same bits, on inputs built to tie, to sit inside
// the eps band, to share core links, to starve and to be uncapped. Dropping
// the heap push for a lowered saturation level, ranking resources by node id,
// freezing a band in cap order, or leaving a cap out of the cap order that
// is less than two eps above its access links each fail it.
func TestFillMatchesScanBitForBit(t *testing.T) {
	type namedCase struct {
		name string
		fillCase
	}
	cases := []namedCase{
		// Alone on both links, the cap a hair above them: the cap event
		// comes first (cap <= sat+eps) and the flow runs at its cap.
		{"cap within eps above its links", craftedFillCase(
			[][2]NodeID{{0, 1}}, []float64{600000 + 5e-10})},
		// The second cap is more than eps above its own links but within eps
		// of the first, so the first's cap event takes it along.
		{"cap within two eps above its links", craftedFillCase(
			[][2]NodeID{{0, 1}, {2, 3}}, []float64{600000 + 9e-10, 600000 + 1.7e-9})},
		// Beyond that a cap cannot bind: the links saturate at 600000.
		{"cap three eps above its links", craftedFillCase(
			[][2]NodeID{{0, 1}, {2, 3}}, []float64{600000 + 9e-10, 600000 + 3e-9})},
	}
	for seed := int64(1); seed <= 60; seed++ {
		cases = append(cases, namedCase{fmt.Sprintf("seed %d", seed), genFillCase(seed)})
	}
	var ssCases, sharedPairs, infCaps int
	for _, c := range cases {
		want := scanFairShare(c.net.Topo, c.flows, c.now)
		got, anySS := c.net.fairShare(c.flows, c.now)
		for i, f := range c.flows {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s (%d flows, %d nodes): flow %d (%d→%d): fill %v (%#x), scan %v (%#x)",
					c.name, len(c.flows), c.net.Topo.N, i, f.src, f.dst,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		// A second fill over the same scratch must not remember the first.
		again, _ := c.net.fairShare(c.flows, c.now)
		for i := range again {
			if math.Float64bits(again[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: flow %d changed on refill: %v then %v", c.name, i, want[i], again[i])
			}
		}
		if anySS {
			ssCases++
		}
		seen := make(map[[2]NodeID]bool)
		for _, f := range c.flows {
			if seen[[2]NodeID{f.src, f.dst}] {
				sharedPairs++
			}
			seen[[2]NodeID{f.src, f.dst}] = true
			if cp, _ := f.capNow(c.now); math.IsInf(cp, 1) {
				infCaps++
			}
		}
	}
	if ssCases == 0 || sharedPairs == 0 || infCaps == 0 {
		t.Fatalf("generator lost coverage: %d slow-start cases, %d flows on an already used pair, %d uncapped flows",
			ssCases, sharedPairs, infCaps)
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
				got, gotSS := f.capNow(now)
				want, wantSS := parentCapNow(topo, f, now)
				if math.Float64bits(got) != math.Float64bits(want) || gotSS != wantSS {
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
