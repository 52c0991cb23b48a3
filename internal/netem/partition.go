package netem

import "slices"

// The incremental fair-share scheme rests on a structural fact about max-min
// allocation: two flows can only influence each other's rates through a
// chain of shared resources. Every resource in this emulator — a node's
// outbound or inbound access link, or a core link — is identified by the
// src or dst endpoint of the flows using it, so the sharing graph's
// connected components are exactly the components of the bipartite
// src/dst graph. Waterfilling a component in isolation yields bit-identical
// rates to one fill over every flow, restricted to it: the per-resource
// accumulation (frozenUse sums, headroom divisions) only ever involves flows
// of one component, and freeze order within a component is the same in both.
//
// The partition into components is maintained, not rebuilt. Between two
// recomputations the network only queues the flows whose open-and-busy
// state may have flipped; update then dissolves just the components those
// flows belong to or newly touch, and re-runs the union-find over that
// region — the dissolved components' surviving flows plus the newly busy
// ones, merged by id. Every other component keeps its slot, its flows slice
// and its endpoint index entries, so the cost follows what changed, not
// what exists. The first build is the region "everything".
//
// Invariant (pinned by TestPartitionMatchesFromScratchUnderChurn): after
// update the partition is what a from-scratch build over the current
// open-and-busy set would produce — the same components, each holding its
// flows in ascending id. Slot numbers are the one thing that differs, which
// is why recompute orders dirty components by their lowest flow id rather
// than by slot: that is the order a from-scratch build lists them in, it
// fixes the order in which armComponent draws engine sequence numbers at one
// instant, and so it fixes the order of same-instant completions in every
// run.

// component is one connected component of the flow-sharing graph. Flows are
// kept sorted by id so per-component waterfills accumulate floats in the
// same order as one fill over every flow. An empty flows slice marks a free
// slot.
type component struct {
	flows []*Flow
	dirty bool // queued in Network.dirtyComps for the current recomputation
	// fills counts the component's fills since it was built, up to 2: a
	// refill (fills ≥ 1) records each flow's fill input and rate on the Flow,
	// and a refill after that (fills 2) may reuse them (DESIGN.md §3.4).
	fills uint8
}

// partition is the maintained decomposition of the open-and-busy flows into
// connected components. bySrc and byDst index each endpoint to the slot of
// the single component containing its flows (-1 for none), so dirty
// detection and region discovery cost one probe per endpoint.
type partition struct {
	comps []component
	free  []int32 // empty slots of comps, reused before comps grows
	bySrc []int32 // per-node component slot, -1 when no active flow
	byDst []int32
	total int // flows across all components

	// Scratch, reused so steady-state churn allocates nothing.
	fresh    []*Flow // newly busy flows of the current update
	buf, tmp []*Flow // id-sorted runs and their merge target
	ends     []int32 // exclusive end offset of each run in buf
	parent   []int32 // union-find, indexed like the region's flow list
	byRoot   []int32 // root flow index -> component slot
}

// update brings the partition in line with the current open-and-busy set,
// given the flows whose state may have changed since the last call.
func (p *partition) update(nodes int, churned []*Flow) {
	if p.bySrc == nil {
		p.bySrc = make([]int32, nodes)
		p.byDst = make([]int32, nodes)
		for i := range p.bySrc {
			p.bySrc[i] = -1
			p.byDst[i] = -1
		}
	}
	p.buf, p.ends, p.fresh = p.buf[:0], p.ends[:0], p.fresh[:0]
	for _, f := range churned {
		f.churned = false
		active := f.open && f.busy
		switch {
		case f.inPart && !active:
			// dissolve clears inPart on f, so a component is dissolved once
			// however many of its flows left.
			p.dissolve(p.bySrc[f.src])
		case !f.inPart && active:
			if ci := p.bySrc[f.src]; ci >= 0 {
				p.dissolve(ci)
			}
			if ci := p.byDst[f.dst]; ci >= 0 {
				p.dissolve(ci)
			}
			f.inPart = true
			p.total++
			p.fresh = append(p.fresh, f)
		}
		// Otherwise f is where it was: it restarted inside one interval, or
		// started and finished inside one.
	}
	if len(p.fresh) > 0 {
		slices.SortFunc(p.fresh, func(a, b *Flow) int { return a.id - b.id })
		p.buf = append(p.buf, p.fresh...)
		p.ends = append(p.ends, int32(len(p.buf)))
	}
	if len(p.buf) > 0 {
		p.build(p.mergeRuns())
	}
	// Flows are short-lived under churn: scratch must not keep the closed
	// ones reachable until a region as large as this one comes round again.
	clear(p.fresh)
	clear(p.buf)
	clear(p.tmp)
}

// dissolve frees component slot ci ahead of a region rebuild: its endpoints'
// index entries are reset and its still-active flows become one run of buf;
// flows that finished or closed leave the partition here.
func (p *partition) dissolve(ci int32) {
	c := &p.comps[ci]
	start := len(p.buf)
	for _, f := range c.flows {
		p.bySrc[f.src] = -1
		p.byDst[f.dst] = -1
		if f.open && f.busy {
			p.buf = append(p.buf, f)
		} else {
			f.inPart = false
			p.total--
		}
	}
	if len(p.buf) > start {
		p.ends = append(p.ends, int32(len(p.buf)))
	}
	clear(c.flows)
	c.flows = c.flows[:0]
	c.fills = 0
	p.free = append(p.free, ci)
}

// mergeRuns merges the id-sorted runs of buf into one id-sorted list by
// bottom-up pairwise merging, ping-ponging between buf and tmp. The result
// is valid until the next update.
func (p *partition) mergeRuns() []*Flow {
	src, ends := p.buf, p.ends
	if len(ends) <= 1 {
		return src
	}
	if cap(p.tmp) < len(src) {
		p.tmp = make([]*Flow, len(src), cap(src))
	}
	dst := p.tmp[:len(src)]
	for len(ends) > 1 {
		lo, runs := int32(0), 0
		for i := 0; i < len(ends); i += 2 {
			mid, hi := ends[i], ends[i]
			if i+1 < len(ends) {
				hi = ends[i+1]
			}
			mergeByID(dst[lo:hi], src[lo:mid], src[mid:hi])
			ends[runs] = hi
			runs++
			lo = hi
		}
		ends = ends[:runs]
		src, dst = dst, src
	}
	p.buf, p.tmp = src, dst
	return src
}

// mergeByID merges id-sorted a and b into out (len(a)+len(b)).
func mergeByID(out, a, b []*Flow) {
	if len(a) == 0 || len(b) == 0 || a[len(a)-1].id < b[0].id {
		copy(out[copy(out, a):], b)
		return
	}
	i, j := 0, 0
	for k := range out {
		if j == len(b) || i < len(a) && a[i].id < b[j].id {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
	}
}

// build groups the id-sorted flows of one region into connected components
// with a union-find keyed on flow endpoints: flows sharing a source (one
// outbound access link) or a destination (one inbound access link) are
// joined. Core-link sharing needs no extra edges — same-pair flows already
// share both endpoints. The region's endpoints index no component on entry
// (dissolve reset them, and a fresh flow's endpoints were either unindexed
// or indexed a component that was then dissolved).
func (p *partition) build(active []*Flow) {
	parent := sized(&p.parent, len(active))
	byRoot := sized(&p.byRoot, len(active))
	for i := range parent {
		parent[i] = int32(i)
		byRoot[i] = -1
	}

	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Attach the larger root index under the smaller so the
			// representative is always the lowest flow index.
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	// First pass: union via the endpoint index arrays (bySrc/byDst double
	// as "first flow seen at this endpoint" during this pass).
	for i, f := range active {
		if j := p.bySrc[f.src]; j >= 0 {
			union(int32(i), j)
		} else {
			p.bySrc[f.src] = int32(i)
		}
		if j := p.byDst[f.dst]; j >= 0 {
			union(int32(i), j)
		} else {
			p.byDst[f.dst] = int32(i)
		}
	}

	// Second pass: materialize components into free slots, reusing their
	// flows slices, and overwrite bySrc/byDst with the slot. Appending in
	// list order keeps each component's flows id-sorted.
	for i, f := range active {
		r := find(int32(i))
		ci := byRoot[r]
		if ci < 0 {
			if k := len(p.free); k > 0 {
				ci = p.free[k-1]
				p.free = p.free[:k-1]
			} else {
				ci = int32(len(p.comps))
				p.comps = append(p.comps, component{})
			}
			byRoot[r] = ci
		}
		c := &p.comps[ci]
		c.flows = append(c.flows, f)
		p.bySrc[f.src] = ci
		p.byDst[f.dst] = ci
	}
}
