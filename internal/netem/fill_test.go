package netem

import (
	"encoding/binary"
	"math"
	"reflect"
	"strconv"
	"testing"

	"bulletprime/internal/golden"
	"bulletprime/internal/sim"
)

// fillInput is what filler.rates and scanFairShare both take.
type fillInput struct {
	flows               []fillFlow
	accessOut, accessIn []float64
}

// scanFairShare is the scan-per-round filler the production fill must equal
// bit for bit: resources numbered on first encounter over the flows
// (out-access, in-access, then a core link shared by two or more flows), a
// min-scan for the next cap, a min-scan for the next saturation that keeps
// the lowest resource number on ties, the eps band frozen in ascending flow
// index, and frozenUse accumulated in freeze order.
func scanFairShare(in fillInput) []float64 {
	type scanResource struct {
		cap, frozenUse float64
		nUnfrozen      int
		flows          []int
	}
	nf := len(in.flows)
	rates := make([]float64, nf)
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
	nn := len(in.accessOut)
	pairCount := make(map[int]int)
	for _, f := range in.flows {
		pairCount[int(f.src)*nn+int(f.dst)]++
	}
	for i, f := range in.flows {
		add(int(f.src), in.accessOut[f.src], i)
		add(nn+int(f.dst), in.accessIn[f.dst], i)
		if pair := int(f.src)*nn + int(f.dst); pairCount[pair] > 1 && f.coreBW > 0 {
			add(2*nn+pair, f.coreBW, i)
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
		for i, f := range in.flows {
			if !frozen[i] && f.cap < minCap {
				minCap = f.cap
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
			for i, f := range in.flows {
				if !frozen[i] && f.cap <= minCap+eps {
					freeze(i, f.cap)
				}
			}
		case satRes >= 0 && !math.IsInf(minSat, 1):
			for _, fi := range resources[satRes].flows {
				if !frozen[fi] {
					freeze(fi, math.Min(minSat, in.flows[fi].cap))
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

// The fuzz target's bytes: one byte of node count, a 9-byte value for each
// node's out- and in-access capacity, then 20 bytes per flow — source,
// destination, and two values: the cap its path puts on it (loss, slow
// start) and its core link's bandwidth. A value is a kind byte and eight
// more: kind 0 reads them as a little-endian float64; kind 1 picks zero, a
// negative capacity or infinity; the rest pick a level — one of the access
// capacities the generated cases draw from, divided by a small flow count —
// and a nudge that places the value on it or within a few 1e-10 on either
// side, where a cap within eps above a saturation level freezes first.
// Every width is fixed, so a mutated byte changes one number and moves none.
const (
	fillMaxNodes = 64
	fillMaxFlows = 400
	fillValLen   = 9
	fillFlowLen  = 2 + 2*fillValLen
)

var (
	fillLevels = [4]float64{600000, 750000, 1e6, 1e6 / 3}
	fillNudges = [8]float64{0, 0, 3e-10, -3e-10, 8e-10, -8e-10, 1.5e-9, -1.5e-9}
)

func fillValue(b []byte) float64 {
	switch b[0] % 4 {
	case 0:
		// No bandwidth is a NaN, and none is so large that 400 of them
		// overflow a sum (the last step of a slow-start ramp reaches 1e18):
		// past 1e30 a value means "no limit".
		if v := math.Float64frombits(binary.LittleEndian.Uint64(b[1:])); v <= 1e30 {
			return v
		}
		return math.Inf(1)
	case 1:
		return [3]float64{0, -1, math.Inf(1)}[b[1]%3]
	}
	return fillLevels[b[1]%4]/float64(1+b[2]%6) + fillNudges[b[3]%8]
}

// decodeFillInput reads a fill input much as the network would build it: the
// flows of one ordered pair see one core bandwidth (the first one named), an
// unset bandwidth is no cap, and a flow's cap is no higher than its link's.
// Unlike the network's, a cap may be zero, −0 or negative: the fill orders
// whatever caps it is given.
func decodeFillInput(data []byte) (in fillInput, ok bool) {
	if len(data) == 0 {
		return in, false
	}
	n := 2 + int(data[0])%(fillMaxNodes-1)
	data = data[1:]
	if len(data) < 2*n*fillValLen+fillFlowLen {
		return in, false
	}
	in.accessOut, in.accessIn = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		in.accessOut[i] = fillValue(data)
		in.accessIn[i] = fillValue(data[fillValLen:])
		data = data[2*fillValLen:]
	}
	pairBW := make(map[[2]NodeID]float64)
	for ; len(data) >= fillFlowLen && len(in.flows) < fillMaxFlows; data = data[fillFlowLen:] {
		src, dst := NodeID(int(data[0])%n), NodeID(int(data[1])%n)
		if src == dst {
			dst = (dst + 1) % NodeID(n)
		}
		bw, seen := pairBW[[2]NodeID{src, dst}]
		if !seen {
			bw = fillValue(data[2+fillValLen:])
			pairBW[[2]NodeID{src, dst}] = bw
		}
		cap := fillValue(data[2:])
		if bw > 0 {
			cap = min(cap, bw)
		}
		in.flows = append(in.flows, fillFlow{src, dst, cap, bw})
	}
	return in, true
}

// encodeFillInput writes in so that decodeFillInput reads it back exactly.
func encodeFillInput(in fillInput) []byte {
	value := func(data []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(append(data, 0), math.Float64bits(v))
	}
	data := []byte{byte(len(in.accessOut) - 2)}
	for i := range in.accessOut {
		data = value(value(data, in.accessOut[i]), in.accessIn[i])
	}
	for _, f := range in.flows {
		data = value(value(append(data, byte(f.src), byte(f.dst)), f.cap), f.coreBW)
	}
	return data
}

// fillCase is one generated seed of FuzzFillMatchesScan.
type fillCase struct {
	net   *Network
	flows []*Flow
	now   sim.Time
}

// input samples the case's flows as Network.fairShare does.
func (c fillCase) input() (in fillInput, anySS bool) {
	in = fillInput{accessOut: c.net.Topo.AccessOut, accessIn: c.net.Topo.AccessIn}
	for _, f := range c.flows {
		cap, bw, ss := f.capNow(c.now)
		anySS = anySS || ss
		in.flows = append(in.flows, fillFlow{f.src, f.dst, cap, bw})
	}
	return in, anySS
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
	nFlows := 2 + rng.Intn(fillMaxFlows-1)
	if seed%3 == 0 {
		nFlows = 2 + rng.Intn(30)
	}
	n := min(3+rng.Intn(3+nFlows/4), fillMaxNodes)
	topo := NewTopology(n)
	uniform := rng.Float64() < 0.5
	base := fillLevels[rng.Intn(len(fillLevels))]
	pick := func() float64 {
		if uniform {
			return base
		}
		return fillLevels[rng.Intn(len(fillLevels))]
	}
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
				topo.SetCoreBW(src, dst, pick()/float64(1+rng.Intn(6))+fillNudges[rng.Intn(len(fillNudges))])
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

// craftedCapOrders returns fill inputs the network never builds, each with
// more than radixMin caps in its cap order so that the radix sort orders
// them: equal caps on flows far apart, −0 caps beside +0 caps, and negative
// caps among positive and infinite ones — plus the smallest input on which
// leaving a cap above its links out of the cap order is wrong once a
// negative cap has freed headroom there.
func craftedCapOrders() []fillInput {
	const n, nFlows = 16, fillMaxFlows
	build := func(capOf func(k int) float64) fillInput {
		in := fillInput{accessOut: make([]float64, n), accessIn: make([]float64, n)}
		for i := range in.accessOut {
			in.accessOut[i], in.accessIn[i] = 600000, 600000
		}
		rng := sim.NewRNG(n)
		for k := 0; k < nFlows; k++ {
			src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if src == dst {
				dst = (dst + 1) % n
			}
			in.flows = append(in.flows, fillFlow{src, dst, capOf(k), 0})
		}
		return in
	}
	// With every flow unfrozen a link saturates at 30000, so which caps
	// bind depends on what froze first.
	levels := [5]float64{10000, 40000, 40000 + 5e-10, 80000, 120000}
	return []fillInput{
		build(func(k int) float64 { return levels[k%len(levels)] }),
		build(func(k int) float64 {
			return [4]float64{math.Copysign(0, -1), 0, levels[k%len(levels)], 0}[k%4]
		}),
		build(func(k int) float64 {
			switch k % 4 {
			case 0:
				return -1234.567 * float64(1+k%50) // some below −10000
			case 1:
				return math.Inf(1)
			}
			return levels[k%len(levels)]
		}),
		{
			accessOut: []float64{100, 1000, 1000, 1000, 1000},
			accessIn:  []float64{1000, 1000, 1000, 1000, 1000},
			flows:     []fillFlow{{0, 1, -200, 0}, {0, 3, 120, 0}, {0, 4, math.Inf(1), 0}},
		},
	}
}

// FuzzFillMatchesScan pins the production fill to the scan-per-round filler:
// every rate has the same bits, on inputs that tie, sit inside the eps band,
// share core links, starve and are uncapped — and a second fill over the same
// scratch does not remember the first. Its seeds are three crafted inputs,
// sixty generated ones (genFillCase) and craftedCapOrders; at least one must
// take the radix cap sort and one must rebuild the saturation heap. On those
// seeds alone, dropping the heap push for a lowered saturation level, ranking
// resources by node id, freezing a band in cap order, leaving a cap out of
// the cap order that is less than two eps above its access links, keying a
// negative cap without flipping its bits or a non-negative one without its
// sign bit, skipping a byte not all keys share, and a heap rebuild that drops
// a live entry each fail it.
func FuzzFillMatchesScan(f *testing.F) {
	seeds := []fillCase{
		// Alone on both links, the cap a hair above them: the cap event
		// comes first (cap <= sat+eps) and the flow runs at its cap.
		craftedFillCase([][2]NodeID{{0, 1}}, []float64{600000 + 5e-10}),
		// The second cap is more than eps above its own links but within eps
		// of the first, so the first's cap event takes it along.
		craftedFillCase([][2]NodeID{{0, 1}, {2, 3}}, []float64{600000 + 9e-10, 600000 + 1.7e-9}),
		// Beyond that a cap cannot bind: the links saturate at 600000.
		craftedFillCase([][2]NodeID{{0, 1}, {2, 3}}, []float64{600000 + 9e-10, 600000 + 3e-9}),
	}
	for seed := int64(1); seed <= 60; seed++ {
		seeds = append(seeds, genFillCase(seed))
	}
	type seedInput struct {
		in    fillInput
		anySS bool
	}
	var inputs []seedInput
	for _, c := range seeds {
		in, anySS := c.input()
		inputs = append(inputs, seedInput{in, anySS})
	}
	for _, in := range craftedCapOrders() {
		inputs = append(inputs, seedInput{in, false})
	}
	var ssCases, sharedPairs, infCaps, radixCases, rebuildCases int
	for k, s := range inputs {
		in, anySS := s.in, s.anySS
		var fl filler
		fl.rates(in.flows, in.accessOut, in.accessIn)
		if fl.work.capsOrdered >= radixMin {
			radixCases++
		}
		if fl.work.rebuilds > 0 {
			rebuildCases++
		}
		data := encodeFillInput(in)
		if back, _ := decodeFillInput(data); !reflect.DeepEqual(back, in) {
			f.Fatalf("seed input %d (%d flows on %d nodes) does not survive its encoding", k, len(in.flows), len(in.accessOut))
		}
		f.Add(data)
		if anySS {
			ssCases++
		}
		seen := make(map[[2]NodeID]bool)
		for _, fl := range in.flows {
			if seen[[2]NodeID{fl.src, fl.dst}] {
				sharedPairs++
			}
			seen[[2]NodeID{fl.src, fl.dst}] = true
			if math.IsInf(fl.cap, 1) {
				infCaps++
			}
		}
	}
	if ssCases == 0 || sharedPairs == 0 || infCaps == 0 {
		f.Fatalf("generator lost coverage: %d slow-start cases, %d flows on an already used pair, %d uncapped flows",
			ssCases, sharedPairs, infCaps)
	}
	if radixCases == 0 || rebuildCases == 0 {
		f.Fatalf("seeds lost coverage: %d radix-sorted cap orders, %d heap rebuilds", radixCases, rebuildCases)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeFillInput(data)
		if !ok {
			return
		}
		want := scanFairShare(in)
		var fl filler
		for _, pass := range []string{"fill", "refill"} {
			got := fl.rates(in.flows, in.accessOut, in.accessIn)
			for i, f := range in.flows {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s of %d flows on %d nodes: flow %d (%d→%d, cap %v): %v (%#x), scan %v (%#x)",
						pass, len(in.flows), len(in.accessOut), i, f.src, f.dst, f.cap,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	})
}

// TestFillWorkGolden pins the fill's work counters, as Network sums them, on
// BenchmarkWaterfillGiant's rig: its set-up run and twenty churn steps, each
// refilling the ≈ 3.7 k-flow component. Every count is a pure function of
// the run, so a change to the cap sort or the saturation heap that moves one
// shows here, exactly.
func TestFillWorkGolden(t *testing.T) {
	eng, net, flows := giantFill(t)
	churn := benchChurn(t, eng, net, flows)
	for i := 0; i < 20; i++ {
		churn(i)
	}
	for _, c := range []struct {
		name  string
		count uint64
	}{
		{"recomputes", net.Recomputes}, {"rates-recomputed", net.FlowRatesRecomputed},
		{"caps-ordered", net.FillCapsOrdered}, {"dead-popped", net.FillDeadPopped},
		{"stale-resifts", net.FillStaleResifts}, {"heap-rebuilds", net.FillHeapRebuilds},
		{"rebuild-visited", net.FillRebuildVisited},
	} {
		golden.Check(t, t.Name()+"/"+c.name, strconv.FormatUint(c.count, 10))
	}
}

// TestFillReuseGolden pins what fill reuse does on a small rig: 16 nodes, 24
// transfers that start their next segment the instant one finishes, and at
// 3 s one inbound access link cut by a tenth. Every count is a pure function
// of the run. The fill's five work counters count only the fills that ran,
// so a reused refill that added the last fill's work again shows here.
func TestFillReuseGolden(t *testing.T) {
	rng := sim.NewRNG(7)
	eng := sim.NewEngine()
	const n = 16
	topo := NewTopology(n)
	for i := 0; i < n; i++ {
		topo.AccessIn[i] = rng.Uniform(2e5, 2e6)
		topo.AccessOut[i] = rng.Uniform(2e5, 2e6)
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(NodeID(i), NodeID(j), rng.Uniform(1e5, 2e6))
				topo.SetCoreDelay(NodeID(i), NodeID(j), rng.Uniform(0.001, 0.05))
			}
		}
	}
	net := New(eng, topo, rng.Stream("net"))
	var cut NodeID
	for k := 0; k < 24; k++ {
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if src == dst {
			dst = (dst + 1) % n
		}
		if k == 0 {
			cut = dst
		}
		fl := net.NewFlow(src, dst)
		var next func()
		next = func() { fl.Start(rng.Uniform(5e4, 5e5), next) }
		next()
	}
	eng.Schedule(3, func() {
		topo.AccessIn[cut] *= 0.9
		net.LinksChanged([]LinkRef{InAccess(cut)})
	})
	eng.RunUntil(6)
	if net.FillsReused == 0 || net.FillCapsOrdered == 0 {
		t.Fatalf("%d refills reused, %d caps ordered; the rig must both reuse and fill", net.FillsReused, net.FillCapsOrdered)
	}
	for _, c := range []struct {
		name  string
		count uint64
	}{
		{"recomputes", net.Recomputes}, {"rates-recomputed", net.FlowRatesRecomputed},
		{"rates-reused", net.FlowRatesReused}, {"fills-reused", net.FillsReused},
		{"caps-ordered", net.FillCapsOrdered}, {"dead-popped", net.FillDeadPopped},
		{"stale-resifts", net.FillStaleResifts}, {"heap-rebuilds", net.FillHeapRebuilds},
		{"rebuild-visited", net.FillRebuildVisited},
	} {
		golden.Check(t, t.Name()+"/"+c.name, strconv.FormatUint(c.count, 10))
	}
}
