package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// Env is the surface a compiled scenario drives — the harness adapts one
// experiment rig to it. Everything a scenario does goes through Env: time
// and scheduling come from the rig's simulation engine, randomness from the
// rig's seeded master RNG (named substreams), mutations hit the rig's
// topology and are reported to the emulator in per-tick batches.
type Env interface {
	// Now returns the current virtual time in seconds.
	Now() float64
	// Schedule runs fn at the absolute virtual time at (clamped to now).
	Schedule(at float64, fn func())
	// Stream derives the named deterministic RNG substream.
	Stream(name string) *sim.RNG
	// Members lists the overlay participants.
	Members() []netem.NodeID
	// Topo is the mutable emulated topology.
	Topo() *netem.Topology
	// LinksChanged reports one tick's batch of link mutations.
	LinksChanged([]netem.LinkRef)
	// Fail crashes a node (no-op for unknown or already-dead nodes).
	Fail(netem.NodeID)
	// Sources lists nodes exempt from churn (dissemination sources).
	Sources() []netem.NodeID
}

// Annotator is an optional Env extension: an Env that also implements it
// receives a human-readable annotation each time a scenario event fires
// (bandwidth sets, degrade rounds, trace steps, outage transitions, node
// failures). Observers surface these as live timeline markers; Envs
// without the extension pay nothing.
type Annotator interface {
	Annotate(text string)
}

// annotate notifies the env's Annotator, if it has one. The format work
// only happens when someone is listening.
func annotate(env Env, format string, args ...any) {
	if a, ok := env.(Annotator); ok {
		a.Annotate(fmt.Sprintf(format, args...))
	}
}

// Program is a validated, immutable scenario bound to an overlay size.
// Apply may be called concurrently on different Envs — a parallel sweep
// binds one shared Program to many rigs.
type Program struct {
	name   string
	notes  string
	n      int
	events []Event // normalized: defaults filled, traces attached
}

// Compile validates the scenario against an overlay of n nodes and returns
// the executable program. The scenario itself is not retained; events are
// deep-copied, so editing the scenario after Compile (or compiling one
// loaded scenario from several goroutines) cannot alias into a validated
// Program.
func (s *Scenario) Compile(n int) (*Program, error) {
	if n < 2 {
		return nil, fmt.Errorf("scenario %q: need at least 2 nodes, got %d", s.Name, n)
	}
	p := &Program{name: s.Name, notes: s.Notes, n: n}
	flashcrowds := 0
	for i := range s.Events {
		ev := cloneEvent(s.Events[i])
		if err := normalizeEvent(&ev, n); err != nil {
			return nil, fmt.Errorf("scenario %q event %d (%s): %w", s.Name, i, ev.Kind, err)
		}
		if ev.Kind == KindFlashCrowd {
			flashcrowds++
			if flashcrowds > 1 {
				return nil, fmt.Errorf("scenario %q: more than one flashcrowd event", s.Name)
			}
		}
		p.events = append(p.events, ev)
	}
	return p, nil
}

// cloneEvent deep-copies one event: every pointer and slice the program
// could read later is detached from the caller's scenario.
func cloneEvent(ev Event) Event {
	if ev.Links != nil {
		links := *ev.Links
		links.Pairs = append([][2]int(nil), ev.Links.Pairs...)
		links.Nodes = append([]int(nil), ev.Links.Nodes...)
		ev.Links = &links
	}
	if ev.Trace != nil {
		tr := *ev.Trace
		tr.Times = append([]float64(nil), ev.Trace.Times...)
		tr.Values = append([]float64(nil), ev.Trace.Values...)
		ev.Trace = &tr
	}
	if ev.Lifetime != nil {
		d := *ev.Lifetime
		ev.Lifetime = &d
	}
	ev.Nodes = append([]int(nil), ev.Nodes...)
	if ev.Waves != nil {
		waves := make([]Wave, len(ev.Waves))
		for i, w := range ev.Waves {
			w.Nodes = append([]int(nil), w.Nodes...)
			waves[i] = w
		}
		ev.Waves = waves
	}
	return ev
}

// Name returns the scenario name.
func (p *Program) Name() string { return p.name }

// Fits reports why the program cannot run on topo, or nil. It was compiled
// for another overlay size, or one of its events writes a core link the
// topology holds fixed (netem.Topology.CoreLinkFixed) — found here, before
// the run, because there the write panics inside an engine event.
func (p *Program) Fits(topo *netem.Topology) error {
	if p.n != topo.N {
		return fmt.Errorf("scenario compiled for %d nodes applied to a %d-node topology: its link sets and cohorts name nodes by index",
			p.n, topo.N)
	}
	members := make([]netem.NodeID, topo.N)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	for i := range p.events {
		ev := &p.events[i]
		ls := ev.Links
		if ev.Kind == KindDegrade {
			ls = &LinkSet{All: true, Dir: "in"} // every member's link toward a victim
		}
		if ls == nil {
			continue
		}
		// A nodes, frac or all selector reaches from each chosen node to every
		// member, so one chosen node's links stand for all of theirs.
		v := 0
		if len(ls.Nodes) > 0 {
			v = ls.Nodes[0]
		}
		for _, l := range ls.links([]netem.NodeID{netem.NodeID(v)}, members) {
			if l.Src >= 0 && l.Dst >= 0 && topo.CoreLinkFixed(l.Src, l.Dst) {
				return fmt.Errorf("scenario %q event %d (%s at t=%vs) changes core link %d→%d, and this topology's inter-cluster links are immutable: "+
					"select access links (\"access\": \"in\", \"out\" or \"both\") or run on the dense clustered preset",
					p.name, i, ev.Kind, ev.At, l.Src, l.Dst)
			}
		}
	}
	return nil
}

// normalizeEvent validates one event and fills kind-specific defaults.
func normalizeEvent(ev *Event, n int) error {
	if ev.At < 0 {
		return fmt.Errorf("negative start time %v", ev.At)
	}
	needLinks := func() error {
		if ev.Links == nil {
			return fmt.Errorf("missing links selector")
		}
		if err := ev.Links.validate(n); err != nil {
			return err
		}
		if ev.Links.Dir == "" {
			ev.Links.Dir = "both"
		}
		return nil
	}
	switch ev.Kind {
	case KindSetBW, KindScaleBW:
		if err := needLinks(); err != nil {
			return err
		}
		if ev.Kind == KindSetBW && ev.BWKbps <= 0 {
			return fmt.Errorf("bw_kbps must be positive, got %v", ev.BWKbps)
		}
		if ev.Kind == KindScaleBW && ev.Factor <= 0 {
			return fmt.Errorf("factor must be positive, got %v", ev.Factor)
		}
		if ev.Kind == KindScaleBW && (ev.Floor < 0 || ev.Floor >= 1) {
			return fmt.Errorf("floor %v outside [0,1)", ev.Floor)
		}
		if ev.Count > 0 && ev.Period <= 0 {
			return fmt.Errorf("count %d needs a positive period", ev.Count)
		}
		if ev.Period > 0 {
			return repeatsAtLeast("period", ev.Period)
		}
	case KindDegrade:
		if err := repeatsAtLeast("period", ev.Period); err != nil {
			return err
		}
		if ev.VictimFrac == 0 {
			ev.VictimFrac = 0.5
		}
		if ev.SourceFrac == 0 {
			ev.SourceFrac = 0.5
		}
		if ev.Factor == 0 {
			ev.Factor = 0.5
		}
		if ev.VictimFrac < 0 || ev.VictimFrac > 1 || ev.SourceFrac < 0 || ev.SourceFrac > 1 {
			return fmt.Errorf("victim/source fractions outside [0,1]")
		}
		if ev.Factor <= 0 {
			return fmt.Errorf("factor must be positive")
		}
		if ev.Floor < 0 || ev.Floor >= 1 {
			return fmt.Errorf("floor %v outside [0,1)", ev.Floor)
		}
		if ev.Stream == "" {
			ev.Stream = "dynamics"
		}
	case KindTrace:
		if err := needLinks(); err != nil {
			return err
		}
		if ev.Trace == nil {
			if ev.TraceFile != "" {
				return fmt.Errorf("trace_file %q not loaded — use LoadFile, or attach the trace inline", ev.TraceFile)
			}
			return fmt.Errorf("missing trace")
		}
		if ev.Stretch == 0 {
			ev.Stretch = 1
		}
		if ev.Scale == 0 {
			ev.Scale = 1
		}
		if ev.Stretch <= 0 || ev.Scale <= 0 {
			return fmt.Errorf("stretch and scale must be positive")
		}
		if ev.Mode == "" {
			ev.Mode = "set"
		}
		if ev.Mode != "set" && ev.Mode != "scale" {
			return fmt.Errorf("trace mode %q (want set or scale)", ev.Mode)
		}
		if err := ev.Trace.validate(ev.Loop); err != nil {
			return err
		}
		if ev.Loop {
			return repeatsAtLeast("loop period (stretch × duration)", ev.Stretch*ev.Trace.Duration)
		}
	case KindOutage:
		if err := needLinks(); err != nil {
			return err
		}
		if err := repeatsAtLeast("mean_up", ev.MeanUp); err != nil {
			return err
		}
		if err := repeatsAtLeast("mean_down", ev.MeanDown); err != nil {
			return err
		}
		if ev.DownKbps == 0 {
			ev.DownKbps = 8 // ~1 KB/s: nearly, but not exactly, dead
		}
		if ev.DownKbps < 0 {
			return fmt.Errorf("down_kbps must be positive")
		}
		if ev.Stream == "" {
			ev.Stream = "outage"
		}
	case KindChurn:
		if ev.Frac <= 0 || ev.Frac > 1 {
			return fmt.Errorf("churn frac %v outside (0,1]", ev.Frac)
		}
		if ev.Lifetime == nil {
			return fmt.Errorf("churn needs a lifetime distribution")
		}
		if err := ev.Lifetime.validate(); err != nil {
			return err
		}
		if ev.Stream == "" {
			ev.Stream = "churn"
		}
	case KindFail:
		if len(ev.Nodes) == 0 {
			return fmt.Errorf("fail needs nodes")
		}
		for _, v := range ev.Nodes {
			if v < 0 || v >= n {
				return fmt.Errorf("fail node %d out of range for %d nodes", v, n)
			}
		}
	case KindFlashCrowd:
		return normalizeWaves(ev, n)
	default:
		return fmt.Errorf("unknown kind %q", ev.Kind)
	}
	return nil
}

// minPeriod is the shortest interval, in virtual seconds, at which Compile
// lets a process fire again (DESIGN.md §5): one bucket of the engine's timer
// wheel, about a millisecond. A shorter one floods the event queue, and one
// too small to move the clock (1e-300 s) would never let the run end.
const minPeriod = 1e-3

// repeatsAtLeast refuses a quantity that sets how often a process fires
// again when it is below minPeriod.
func repeatsAtLeast(name string, v float64) error {
	if !(v >= minPeriod) { // NaN included
		return fmt.Errorf("%s %vs is below the %vs floor on how often a process repeats", name, v, minPeriod)
	}
	return nil
}

// normalizeWaves validates a flashcrowd event. Waves are either all
// fraction-based (cohorts carved from a seeded shuffle of the non-source
// members; the last wave takes the remainder) or all explicit node lists
// (disjoint, covering every member).
func normalizeWaves(ev *Event, n int) error {
	if len(ev.Waves) == 0 {
		return fmt.Errorf("flashcrowd needs at least one wave")
	}
	if ev.Waves[0].At != 0 {
		return fmt.Errorf("the first wave must start at t=0 (the origin's session)")
	}
	explicit, fractional := 0, 0
	for i, w := range ev.Waves {
		if i > 0 && w.At <= ev.Waves[i-1].At {
			return fmt.Errorf("wave %d start %v not after wave %d start %v",
				i, w.At, i-1, ev.Waves[i-1].At)
		}
		switch {
		case len(w.Nodes) > 0 && w.Frac > 0:
			return fmt.Errorf("wave %d sets both nodes and frac", i)
		case len(w.Nodes) > 0:
			explicit++
		case w.Frac > 0 || i == len(ev.Waves)-1:
			// The last wave may omit frac: it takes the remainder.
			fractional++
		default:
			return fmt.Errorf("wave %d selects no members (need frac or nodes)", i)
		}
	}
	if explicit > 0 && fractional > 0 {
		return fmt.Errorf("waves must be all explicit node lists or all fractions")
	}
	if explicit > 0 {
		seen := make(map[int]int)
		for i, w := range ev.Waves {
			if len(w.Nodes) < 2 {
				return fmt.Errorf("wave %d has %d nodes; a session needs at least 2", i, len(w.Nodes))
			}
			for _, v := range w.Nodes {
				if v < 0 || v >= n {
					return fmt.Errorf("wave %d node %d out of range for %d nodes", i, v, n)
				}
				if prev, dup := seen[v]; dup {
					return fmt.Errorf("node %d appears in waves %d and %d", v, prev, i)
				}
				seen[v] = i
			}
		}
		if len(seen) != n {
			return fmt.Errorf("explicit waves cover %d of %d nodes; every member needs a wave", len(seen), n)
		}
		if seen[0] != 0 {
			return fmt.Errorf("node 0 (the origin) must be in the first wave")
		}
		return nil
	}
	// Fraction-based: check the cohorts that will be carved out of the n-1
	// non-origin members are all large enough to form sessions.
	counts := waveCounts(ev.Waves, n)
	for i, c := range counts {
		min := 2
		if i == 0 {
			min = 1 // the origin joins wave 0
		}
		if c < min {
			return fmt.Errorf("wave %d resolves to %d members at n=%d; a session needs at least 2", i, c, n)
		}
	}
	return nil
}

// frcount is the scenario's single fraction→count rule: floor(k·frac), with
// an epsilon so binary-exact fractions (0.5 of 10) land on the intuitive
// value. Matches the paper's "50% of participants" = n/2.
func frcount(k int, frac float64) int {
	c := int(float64(float64(k)*frac) + 1e-9)
	if c > k {
		c = k
	}
	return c
}

// waveCounts resolves fraction-based wave sizes over the n-1 non-origin
// members; the last wave takes the remainder.
func waveCounts(waves []Wave, n int) []int {
	m := n - 1
	counts := make([]int, len(waves))
	assigned := 0
	for i, w := range waves {
		if i == len(waves)-1 {
			counts[i] = m - assigned
			break
		}
		c := frcount(m, w.Frac)
		if c > m-assigned {
			c = m - assigned
		}
		counts[i] = c
		assigned += c
	}
	return counts
}

// Waves returns the flashcrowd wave specs, or nil when the scenario has no
// flash crowd (a single session over all members).
func (p *Program) Waves() []Wave {
	for _, ev := range p.events {
		if ev.Kind == KindFlashCrowd {
			return ev.Waves
		}
	}
	return nil
}

// ResolveWaves maps the wave specs onto concrete cohorts for one rig. The
// first node of each cohort is the wave's session source; node 0 (the
// origin) leads wave 0. Fraction-based cohorts are carved from a shuffle
// drawn on rng, so cohort membership is deterministic per seed.
func (p *Program) ResolveWaves(rng *sim.RNG) [][]netem.NodeID {
	waves := p.Waves()
	if waves == nil {
		return nil
	}
	if len(waves[0].Nodes) > 0 {
		out := make([][]netem.NodeID, len(waves))
		for i, w := range waves {
			cohort := make([]netem.NodeID, len(w.Nodes))
			for j, v := range w.Nodes {
				cohort[j] = netem.NodeID(v)
			}
			// Lead with the lowest id, like the fractional path: the wave
			// source must not depend on JSON list order, and node 0 leads
			// wave 0 (validation puts it there).
			sort.Slice(cohort, func(a, b int) bool { return cohort[a] < cohort[b] })
			out[i] = cohort
		}
		return out
	}
	rest := make([]int, 0, p.n-1)
	for v := 1; v < p.n; v++ {
		rest = append(rest, v)
	}
	rng.ShuffleInts(rest)
	counts := waveCounts(waves, p.n)
	out := make([][]netem.NodeID, len(waves))
	next := 0
	for i, c := range counts {
		cohort := make([]netem.NodeID, 0, c+1)
		if i == 0 {
			cohort = append(cohort, 0)
		}
		for j := 0; j < c && next < len(rest); j++ {
			cohort = append(cohort, netem.NodeID(rest[next]))
			next++
		}
		// Lead with the lowest id so the wave source is well defined.
		sort.Slice(cohort, func(a, b int) bool { return cohort[a] < cohort[b] })
		out[i] = cohort
	}
	return out
}

// Apply binds the program's timeline to one rig: every event schedules its
// mutations on the env. Flash-crowd waves are not applied here — the
// harness reads them via Waves/ResolveWaves and builds the sessions.
// Apply must run before the experiment starts (virtual time zero) so
// absolute event times line up.
func (p *Program) Apply(env Env) {
	for i := range p.events {
		ev := &p.events[i]
		switch ev.Kind {
		case KindSetBW, KindScaleBW:
			p.applyBW(env, ev)
		case KindDegrade:
			p.applyDegrade(env, ev)
		case KindTrace:
			p.applyTrace(env, ev)
		case KindOutage:
			p.applyOutage(env, ev)
		case KindChurn:
			p.applyChurn(env, ev)
		case KindFail:
			at := ev.At
			nodes := ev.Nodes
			env.Schedule(at, func() {
				for _, v := range nodes {
					env.Fail(netem.NodeID(v))
				}
				annotate(env, "failed nodes %v", nodes)
			})
		case KindFlashCrowd:
			// Session construction belongs to the harness.
		}
	}
}

// resolveLinkSet maps a LinkSet onto concrete links. Fraction sampling draws
// node choices from the event's stream (or "links" when the event has none),
// at Apply time, so the resolved set is fixed for the run and deterministic
// per seed.
func resolveLinkSet(ls *LinkSet, env Env, stream string) []netem.LinkRef {
	members := env.Members()
	var nodes []netem.NodeID
	switch {
	case len(ls.Pairs) > 0: // the pairs are the links
	case len(ls.Nodes) > 0:
		for _, v := range ls.Nodes {
			nodes = append(nodes, netem.NodeID(v))
		}
	case ls.Frac > 0:
		if stream == "" {
			stream = "links"
		}
		rng := env.Stream(stream)
		for _, i := range rng.SampleInts(len(members), frcount(len(members), ls.Frac)) {
			nodes = append(nodes, members[i])
		}
		slices.Sort(nodes)
	default: // All
		nodes = append(nodes, members...)
	}
	return ls.links(nodes, members)
}

// links lists the selector's links once its nodes are chosen: the explicit
// pairs; or the chosen nodes' access links, every inbound one before every
// outbound one; or each core link between a chosen node and a member, in
// Dir, once, in the order it first occurs. members are distinct.
func (ls *LinkSet) links(nodes, members []netem.NodeID) []netem.LinkRef {
	var out []netem.LinkRef
	if len(ls.Pairs) > 0 {
		for _, pr := range ls.Pairs {
			out = append(out, netem.LinkRef{Src: netem.NodeID(pr[0]), Dst: netem.NodeID(pr[1])})
		}
		return out
	}
	if ls.Access != "" {
		if ls.Access != "out" {
			for _, v := range nodes {
				out = append(out, netem.InAccess(v))
			}
		}
		if ls.Access != "in" {
			for _, v := range nodes {
				out = append(out, netem.OutAccess(v))
			}
		}
		return out
	}
	// A link repeats only where a chosen node does, or, under "both",
	// between two chosen nodes: the first of the two to be walked listed
	// both directions. Every chosen node is a member (Compile bounds Nodes by
	// the overlay size), so one mark per member finds both, where a set of
	// links would hold every listed link again.
	size := 0
	for _, o := range members {
		size = max(size, int(o)+1)
	}
	walked := make([]bool, size)
	in := ls.Dir == "in" || ls.Dir == "both"
	outward := ls.Dir == "out" || ls.Dir == "both"
	for _, v := range nodes {
		if walked[v] {
			continue
		}
		for _, o := range members {
			if o == v || in && outward && walked[o] {
				continue
			}
			if in {
				out = append(out, netem.LinkRef{Src: o, Dst: v})
			}
			if outward {
				out = append(out, netem.LinkRef{Src: v, Dst: o})
			}
		}
		walked[v] = true
	}
	return out
}

// snapshot reads the current bandwidth of every link, in order.
func snapshot(topo *netem.Topology, links []netem.LinkRef) []float64 {
	bws := make([]float64, len(links))
	for i, l := range links {
		bws[i] = topo.LinkBW(l)
	}
	return bws
}

// setAll assigns bw to every link.
func setAll(topo *netem.Topology, links []netem.LinkRef, bw float64) {
	for _, l := range links {
		topo.SetLinkBW(l, bw)
	}
}

// repeat schedules fn at start, then every period (count times total;
// count 0 = unbounded).
func repeat(env Env, start, period float64, count int, fn func()) {
	fired := 0
	var tick func()
	tick = func() {
		fn()
		fired++
		if period > 0 && (count == 0 || fired < count) {
			env.Schedule(env.Now()+period, tick)
		}
	}
	env.Schedule(start, tick)
}

// applyBW runs set_bw and scale_bw, which differ only in what a tick does to
// the selected links: at At, then every Period (Count times, 0 = forever),
// the tick rewrites them and reports them as one batch.
func (p *Program) applyBW(env Env, ev *Event) {
	links := resolveLinkSet(ev.Links, env, ev.Stream)
	topo := env.Topo()
	var tick func()
	format, arg := "set %s to %.0f Kbps", ev.BWKbps
	if ev.Kind == KindSetBW {
		bw := netem.Kbps(ev.BWKbps)
		tick = func() { setAll(topo, links, bw) }
	} else {
		format, arg = "scale %s by %.3g", ev.Factor
		var floors []float64
		if ev.Floor > 0 {
			floors = snapshot(topo, links)
			for i := range floors {
				floors[i] *= ev.Floor
			}
		}
		tick = func() {
			for i, l := range links {
				bw := topo.LinkBW(l) * ev.Factor
				if floors != nil && bw < floors[i] {
					bw = floors[i]
				}
				topo.SetLinkBW(l, bw)
			}
		}
	}
	count := ev.Count
	if ev.Period <= 0 {
		count = 1
	}
	repeat(env, ev.At, ev.Period, count, func() {
		tick()
		env.LinksChanged(links)
		annotate(env, format, ev.Links, arg)
	})
}

// applyDegrade reproduces the §4.1 process. The round structure, RNG stream
// ("dynamics" by default), and draw order match the original hardcoded
// closure exactly, which is what makes the legacy-equivalence test hold
// bit-for-bit.
func (p *Program) applyDegrade(env Env, ev *Event) {
	rng := env.Stream(ev.Stream)
	members := env.Members()
	topo := env.Topo()
	n := len(members)
	var floor []float64 // floor[s*n+d] bounds the link members[s]→members[d]
	if ev.Floor > 0 {
		floor = make([]float64, n*n)
		for s, src := range members {
			for d, dst := range members {
				if src != dst {
					floor[s*n+d] = topo.CoreBW(src, dst) * ev.Floor
				}
			}
		}
	}
	victims := frcount(n, ev.VictimFrac)
	srcs := frcount(n, ev.SourceFrac)
	rounds := 0
	repeat(env, ev.At+ev.Period, ev.Period, ev.Count, func() {
		var batch []netem.LinkRef
		for _, vi := range rng.SampleInts(n, victims) {
			victim := members[vi]
			for _, oi := range rng.SampleInts(n, srcs) {
				src := members[oi]
				if src == victim {
					continue
				}
				bw := topo.CoreBW(src, victim) * ev.Factor
				if floor != nil && bw < floor[oi*n+vi] {
					bw = floor[oi*n+vi]
				}
				topo.SetCoreBW(src, victim, bw)
				batch = append(batch, netem.LinkRef{Src: src, Dst: victim})
			}
		}
		env.LinksChanged(batch)
		rounds++
		annotate(env, "degrade round %d: %d links ×%.3g", rounds, len(batch), ev.Factor)
	})
}

func (p *Program) applyTrace(env Env, ev *Event) {
	links := resolveLinkSet(ev.Links, env, ev.Stream)
	topo := env.Topo()
	tr := ev.Trace
	var base []float64
	if ev.Mode == "scale" {
		base = snapshot(topo, links)
	}
	apply := func(v float64) {
		if ev.Mode == "scale" {
			for i, l := range links {
				topo.SetLinkBW(l, base[i]*v*ev.Scale)
			}
			annotate(env, "trace step on %s: ×%.3g", ev.Links, v*ev.Scale)
		} else {
			setAll(topo, links, netem.Kbps(v*ev.Scale))
			annotate(env, "trace step on %s: %.0f Kbps", ev.Links, v*ev.Scale)
		}
		env.LinksChanged(links)
	}
	var fire func(i int, cycleStart float64)
	fire = func(i int, cycleStart float64) {
		apply(tr.Values[i])
		if i+1 < len(tr.Times) {
			env.Schedule(cycleStart+float64(ev.Stretch*tr.Times[i+1]), func() { fire(i+1, cycleStart) })
		} else if ev.Loop {
			next := cycleStart + float64(ev.Stretch*tr.Duration)
			env.Schedule(next, func() { fire(0, next) })
		}
	}
	env.Schedule(ev.At, func() { fire(0, ev.At) })
}

func (p *Program) applyOutage(env Env, ev *Event) {
	rng := env.Stream(ev.Stream)
	links := resolveLinkSet(ev.Links, env, ev.Stream)
	topo := env.Topo()
	downBW := netem.Kbps(ev.DownKbps)
	up := Dist{Kind: "exp", Mean: ev.MeanUp}
	down := Dist{Kind: "exp", Mean: ev.MeanDown}
	// Recovery restores the bandwidth each link had when the outage began,
	// not a t=0 snapshot, so outages compose with degrade/trace mutations
	// on overlapping links instead of silently undoing them.
	var restore []float64
	var goDown, goUp func()
	goDown = func() {
		restore = snapshot(topo, links)
		setAll(topo, links, downBW)
		env.LinksChanged(links)
		annotate(env, "outage on %s: down to %.0f Kbps", ev.Links, ev.DownKbps)
		env.Schedule(env.Now()+down.Sample(rng), goUp)
	}
	goUp = func() {
		for i, l := range links {
			topo.SetLinkBW(l, restore[i])
		}
		env.LinksChanged(links)
		annotate(env, "outage on %s: restored", ev.Links)
		env.Schedule(env.Now()+up.Sample(rng), goDown)
	}
	env.Schedule(ev.At+up.Sample(rng), goDown)
}

func (p *Program) applyChurn(env Env, ev *Event) {
	rng := env.Stream(ev.Stream)
	exempt := make(map[netem.NodeID]bool)
	for _, s := range env.Sources() {
		exempt[s] = true
	}
	var candidates []netem.NodeID
	for _, m := range env.Members() {
		if !exempt[m] {
			candidates = append(candidates, m)
		}
	}
	k := frcount(len(candidates), ev.Frac)
	for _, ci := range rng.SampleInts(len(candidates), k) {
		id := candidates[ci]
		life := ev.Lifetime.Sample(rng)
		env.Schedule(ev.At+life, func() {
			env.Fail(id)
			annotate(env, "churn: node %d failed", id)
		})
	}
}

// Timeline renders the compiled schedule for humans: one line per event,
// sorted by first activation, deterministic parts with concrete times and
// stochastic parts with their process parameters. `bulletctl scenario lint`
// prints it.
func (p *Program) Timeline() string {
	type entry struct {
		at   float64
		line string
	}
	var entries []entry
	add := func(at float64, format string, args ...any) {
		entries = append(entries, entry{at, fmt.Sprintf("t=%8.2fs  %s", at, fmt.Sprintf(format, args...))})
	}
	for _, ev := range p.events {
		// every renders a repeating event's schedule.
		every := func(unit string) string {
			if ev.Count > 0 {
				return fmt.Sprintf("every %.1fs %d %s", ev.Period, ev.Count, unit)
			}
			return fmt.Sprintf("every %.1fs forever", ev.Period)
		}
		switch ev.Kind {
		case KindSetBW, KindScaleBW:
			suffix := ""
			if ev.Period > 0 {
				suffix = ", " + every("times")
			}
			if ev.Kind == KindSetBW {
				add(ev.At, "set %s to %.0f Kbps%s", ev.Links, ev.BWKbps, suffix)
				break
			}
			if ev.Floor > 0 {
				suffix += fmt.Sprintf(", floor %.3g× original", ev.Floor)
			}
			add(ev.At, "scale %s by %.3g%s", ev.Links, ev.Factor, suffix)
		case KindDegrade:
			add(ev.At+ev.Period,
				"degrade: %s, %.0f%% victims × %.0f%% sources, ×%.3g cumulative, floor %.3g (stream %q)",
				every("rounds"), ev.VictimFrac*100, ev.SourceFrac*100, ev.Factor, ev.Floor, ev.Stream)
		case KindTrace:
			src := "inline trace"
			if ev.TraceFile != "" {
				src = ev.TraceFile
			}
			shape := fmt.Sprintf("%d points", len(ev.Trace.Times))
			if ev.Loop {
				shape += fmt.Sprintf(", looping every %.1fs", ev.Stretch*ev.Trace.Duration)
			}
			mode := "Kbps"
			if ev.Mode == "scale" {
				mode = "× original"
			}
			add(ev.At, "replay %s (%s) onto %s as %s, stretch %.3g, scale %.3g",
				src, shape, ev.Links, mode, ev.Stretch, ev.Scale)
		case KindOutage:
			add(ev.At, "outage on %s: up ~Exp(%.1fs), down ~Exp(%.1fs) at %.0f Kbps (stream %q)",
				ev.Links, ev.MeanUp, ev.MeanDown, ev.DownKbps, ev.Stream)
		case KindChurn:
			add(ev.At, "churn: %.0f%% of non-source members fail after %s lifetimes (stream %q)",
				ev.Frac*100, ev.Lifetime, ev.Stream)
		case KindFail:
			add(ev.At, "fail nodes %v", ev.Nodes)
		case KindFlashCrowd:
			counts := ""
			if len(ev.Waves[0].Nodes) == 0 {
				cs := waveCounts(ev.Waves, p.n)
				cs[0]++ // the origin
				counts = fmt.Sprintf(" (cohort sizes %v at n=%d)", cs, p.n)
			}
			for i, w := range ev.Waves {
				size := fmt.Sprintf("%.0f%% of members", w.Frac*100)
				if len(w.Nodes) > 0 {
					size = fmt.Sprintf("%d explicit nodes", len(w.Nodes))
				} else if i == len(ev.Waves)-1 && w.Frac == 0 {
					size = "the remainder"
				}
				add(w.At, "flash-crowd wave %d: session over %s%s", i, size, counts)
				counts = ""
			}
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].at < entries[j].at })
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %q compiled for %d nodes, %d events\n", p.name, p.n, len(p.events))
	if p.notes != "" {
		fmt.Fprintf(&b, "  %s\n", p.notes)
	}
	for _, e := range entries {
		b.WriteString("  " + e.line + "\n")
	}
	return b.String()
}
