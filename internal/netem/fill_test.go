package netem

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

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

// decodeFillInput reads a fill input as the network would build it: the
// flows of one ordered pair see one core bandwidth (the first one named), an
// unset bandwidth is no cap, and a flow's cap is no higher than its link's.
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
		if cap <= 0 {
			cap = math.Inf(1)
		}
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

// FuzzFillMatchesScan pins the production fill to the scan-per-round filler:
// every rate has the same bits, on inputs that tie, sit inside the eps band,
// share core links, starve and are uncapped — and a second fill over the same
// scratch does not remember the first. Its seeds are three crafted inputs
// and sixty generated ones (genFillCase); on those alone, dropping the heap
// push for a lowered saturation level, ranking resources by node id, freezing
// a band in cap order, or leaving a cap out of the cap order that is less
// than two eps above its access links each fail it.
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
	var ssCases, sharedPairs, infCaps int
	for k, c := range seeds {
		in, anySS := c.input()
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
