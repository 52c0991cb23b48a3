package netem

import (
	"math"
	"slices"
)

// fillFlow is one flow as the fill sees it: its endpoints, its rate cap, and
// the bandwidth of the core link src→dst (<= 0 when none is set), which is a
// shared resource when the fill holds another flow on the same ordered pair.
type fillFlow struct {
	src, dst NodeID
	cap      float64
	coreBW   float64
}

// filler computes max-min fair rates. It owns the fill's working storage,
// reused across calls so the steady state allocates nothing, and knows
// nothing of what its flows are or of when it runs: rates is a function of
// its arguments alone.
type filler struct {
	in       []fillFlow // the caller's input buffer; rates does not read it
	out      []float64
	frozen   []bool
	keys     []int32 // one per access key, allocated by the first fill
	res      []resource
	flowRes  []int32
	resFlows []int32
	pairSeen []pairMark
	pairNext []int32
	capOrder []capEntry
	grp      []int32
	satHeap  []satEntry
}

// resource is one shared link of a fill: an access link (out or in), or a
// core link carrying two or more of the fill's flows.
type resource struct {
	cap       float64
	frozenUse float64
	sat       float64 // level at which it saturates now; see level
	nUnfrozen int32
	// ord ranks resources by first encounter over the fill's flows — flow i
	// meets its out-access link (3i), its in-access link (3i+1), then its
	// shared core link (3i+2) — and breaks ties between equal sats.
	ord        int32
	key        int32 // the access key it stands for; -1 for a core link
	start, end int32 // its flows, ascending, are resFlows[start:end]
}

// level is the water level at which the resource's remaining headroom is
// used up by its unfrozen flows (nUnfrozen > 0).
func (r *resource) level() float64 {
	headroom := r.cap - r.frozenUse
	if headroom < 0 {
		headroom = 0
	}
	return headroom / float64(r.nUnfrozen)
}

// pairMark is the duplicate-destination detector of one out-access
// resource's flow list: in-access resource b was last seen in group grp, on
// flow last.
type pairMark struct {
	grp, last int32
}

// capEntry is one flow of the cap order.
type capEntry struct {
	cap float64
	fi  int32
}

func capCmp(a, b capEntry) int {
	switch {
	case a.cap < b.cap:
		return -1
	case a.cap > b.cap:
		return 1
	}
	return int(a.fi - b.fi)
}

// fillEps is the band within which the fill treats levels as equal: a cap
// within fillEps above the next saturation level still freezes first, and
// caps within fillEps of each other freeze together.
const fillEps = 1e-9

// rates computes max-min fair rates for flows by progressive filling with
// per-flow caps, over access links of the given capacities (indexed by node):
// every unfrozen flow's rate rises with a common water level; a flow freezes
// at its cap when the level reaches it, and when a shared link saturates all
// its unfrozen flows freeze at the current level. The returned slice is valid
// until the next call.
//
// The result is pinned bit for bit (scanFairShare in the tests is the
// scan-per-round filler it must equal; DESIGN.md §3 has the contract): the
// next cap event is the first unfrozen flow in (cap, index) order, and every
// unfrozen flow within eps of it freezes with it in ascending index; the next
// saturation event is the live resource with the lowest (sat, ord).
func (fl *filler) rates(flows []fillFlow, accessOut, accessIn []float64) []float64 {
	nf := len(flows)
	rates := sized(&fl.out, nf)
	frozen := sized(&fl.frozen, nf)
	clear(frozen)
	flowRes := sized(&fl.flowRes, 3*nf) // per flow: out, in, pair (or -1)
	order := fl.capOrder[:0]

	// keys maps an access key (node id for out-access, len(accessOut) + node
	// id for in-access) to the fill's resource for it. An entry counts only if
	// the resource it names is one of this fill's and names the key back, so
	// whatever earlier fills left behind is never cleared.
	if fl.keys == nil {
		fl.keys = make([]int32, len(accessOut)+len(accessIn))
	}
	keys := fl.keys
	res := fl.res[:0]
	access := func(key int32, capacity float64, ord int) int32 {
		if ri := keys[key]; int(ri) < len(res) && res[ri].key == key {
			return ri
		}
		ri := int32(len(res))
		keys[key] = ri
		res = append(res, resource{cap: capacity, key: key, ord: int32(ord)})
		return ri
	}

	// Access resources, in first-encounter order, and the cap order's flows.
	for i, f := range flows {
		outCap, inCap := accessOut[f.src], accessIn[f.dst]
		// A cap event needs cap <= minSat+eps, and it takes along the flows
		// whose caps are within eps of the event's; no sat exceeds its
		// link's capacity. A cap further than that above either access
		// link never freezes its flow and stays out of the cap order.
		if f.cap <= max(0, min(outCap, inCap))+fillEps+fillEps {
			order = append(order, capEntry{f.cap, int32(i)})
		}
		out := access(int32(f.src), outCap, 3*i)
		in := access(int32(len(accessOut))+int32(f.dst), inCap, 3*i+1)
		res[out].nUnfrozen++
		res[in].nUnfrozen++
		flowRes[3*i], flowRes[3*i+1], flowRes[3*i+2] = out, in, -1
	}
	nAccess := len(res)

	// Their flow lists: counts to offsets, then one scatter in flow order,
	// which leaves every list ascending.
	resFlows := sized(&fl.resFlows, 3*nf)
	pos := int32(0)
	for ri := range res {
		r := &res[ri]
		r.start, r.end = pos, pos
		pos += r.nUnfrozen
	}
	for i := range flows {
		for _, ri := range flowRes[3*i : 3*i+2] {
			r := &res[ri]
			resFlows[r.end] = int32(i)
			r.end++
		}
	}

	// A core link carrying two or more flows is a resource too; with one it
	// is just a cap. Two flows share an ordered pair when they sit on the
	// same out-access resource and have the same in-access resource, so each
	// out-access list is scanned for repeated in-access resources. next
	// chains a shared pair's flows in ascending order from its first.
	seen := sized(&fl.pairSeen, nAccess)
	clear(seen)
	next := sized(&fl.pairNext, nf)
	for a := 0; a < nAccess; a++ {
		if res[a].ord%3 != 0 || res[a].nUnfrozen < 2 {
			continue
		}
		grp := int32(a + 1)
		for _, fi := range resFlows[res[a].start:res[a].end] {
			m := &seen[flowRes[3*fi+1]]
			if m.grp != grp {
				*m = pairMark{grp, fi}
				continue
			}
			prev := m.last
			p := flowRes[3*prev+2]
			if p < 0 { // prev was alone on the pair until now
				bw := flows[fi].coreBW
				if bw <= 0 {
					continue // no bandwidth set: the pair is no resource
				}
				p = int32(len(res))
				res = append(res, resource{cap: bw, key: -1, ord: 3*prev + 2, nUnfrozen: 1})
				flowRes[3*prev+2] = p
			}
			flowRes[3*fi+2] = p
			res[p].nUnfrozen++
			next[prev] = fi
			m.last = fi
		}
	}
	for ri := nAccess; ri < len(res); ri++ {
		r := &res[ri]
		r.start = pos
		for fi, k := r.ord/3, r.nUnfrozen; k > 0; fi, k = next[fi], k-1 {
			resFlows[pos] = fi
			pos++
		}
		r.end = pos
	}
	fl.res = res

	// The saturation heap holds one (sat, ord) entry per resource with the
	// invariant stored sat <= the resource's current sat. A freeze at rate
	// <= sat leaves the resource's sat no lower, so an ordinary freeze does
	// not touch the heap: a stale entry is corrected when it surfaces. Only
	// a freeze inside the eps band above sat, or one whose rounding goes the
	// other way, lowers a sat; then a second, lower entry is pushed. Either
	// way the top entry, once it matches its resource, is the lowest
	// (sat, ord) among live resources.
	heap := sized(&fl.satHeap, len(res))
	for ri := range res {
		r := &res[ri]
		r.sat = r.level()
		heap[ri] = satEntry{r.sat, r.ord, int32(ri)}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		satDown(heap, i)
	}

	unfrozen := nf
	freeze := func(fi int32, rate float64) {
		frozen[fi] = true
		rates[fi] = rate
		unfrozen--
		for _, ri := range flowRes[3*fi : 3*fi+3] {
			if ri < 0 {
				continue
			}
			r := &res[ri]
			if r.nUnfrozen == 0 {
				continue // the resource saturating in this event
			}
			r.nUnfrozen--
			r.frozenUse += rate
			if r.nUnfrozen == 0 {
				continue // its entry is dropped when it surfaces
			}
			sat := r.level()
			if sat < r.sat {
				heap = satPush(heap, satEntry{sat, r.ord, ri})
			}
			r.sat = sat
		}
	}

	slices.SortFunc(order, capCmp)
	fl.capOrder = order
	capPtr := 0

	for unfrozen > 0 {
		// Next cap event: the first unfrozen flow in cap order.
		for capPtr < len(order) && frozen[order[capPtr].fi] {
			capPtr++
		}
		minCap := math.Inf(1)
		if capPtr < len(order) {
			minCap = order[capPtr].cap
		}
		// Next saturation event: the top entry, once it is neither dead nor
		// behind its resource.
		minSat, satRes := math.Inf(1), int32(-1)
		for len(heap) > 0 {
			top := &heap[0]
			r := &res[top.ri]
			if r.nUnfrozen == 0 {
				heap = satPop(heap)
				continue
			}
			if top.sat != r.sat {
				top.sat = r.sat
				satDown(heap, 0)
				continue
			}
			minSat, satRes = r.sat, top.ri // r.sat: equal to the entry's, but 0 where that may hold -0
			break
		}

		if minCap <= minSat+fillEps && !math.IsInf(minCap, 1) {
			// The unfrozen flows inside the eps band are contiguous in cap
			// order; they freeze in ascending flow index.
			grp := fl.grp[:0]
			for p := capPtr; p < len(order) && order[p].cap <= minCap+fillEps; p++ {
				if fi := order[p].fi; !frozen[fi] {
					grp = append(grp, fi)
				}
			}
			slices.Sort(grp)
			for _, fi := range grp {
				freeze(fi, flows[fi].cap)
			}
			fl.grp = grp[:0]
			continue
		}
		if satRes >= 0 && !math.IsInf(minSat, 1) {
			// Its flows all freeze at this level now. Marking it dead first
			// keeps freeze off it: refreshing its sat per flow would be wasted,
			// and rounding would lower that sat (and push) every other time.
			r := &res[satRes]
			r.nUnfrozen = 0
			for _, fi := range resFlows[r.start:r.end] {
				if !frozen[fi] {
					freeze(fi, min(minSat, flows[fi].cap))
				}
			}
			continue
		}
		// No finite cap and no saturable resource: unconstrained flows.
		for i := range frozen {
			if !frozen[i] {
				freeze(int32(i), 1e12)
			}
		}
	}
	fl.satHeap = heap
	return rates
}

// satEntry is one saturation-heap entry; see rates.
type satEntry struct {
	sat float64
	ord int32
	ri  int32
}

func satLess(a, b satEntry) bool {
	if a.sat != b.sat {
		return a.sat < b.sat
	}
	return a.ord < b.ord
}

func satPush(h []satEntry, e satEntry) []satEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !satLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func satPop(h []satEntry) []satEntry {
	nh := len(h) - 1
	h[0] = h[nh]
	h = h[:nh]
	satDown(h, 0)
	return h
}

// satDown restores the heap below entry i after its key rose.
func satDown(h []satEntry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && satLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && satLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// sized returns the reusable scratch slice *s resized to n elements, growing
// it when needed; the contents are whatever the last use left.
func sized[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}
