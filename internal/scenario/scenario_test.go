package scenario

import (
	"slices"
	"strings"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// testEnv binds programs to a bare engine + emulated network, standing in
// for the harness rig.
type testEnv struct {
	eng     *sim.Engine
	net     *netem.Network
	master  *sim.RNG
	members []netem.NodeID
	sources []netem.NodeID
	failed  []netem.NodeID
}

func newTestEnv(n int, seed int64) *testEnv {
	eng := sim.NewEngine()
	master := sim.NewRNG(seed)
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(6), netem.Mbps(6), netem.MS(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(2))
			}
		}
	}
	members := make([]netem.NodeID, n)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	return &testEnv{
		eng:     eng,
		net:     netem.New(eng, topo, master.Stream("net")),
		master:  master,
		members: members,
		sources: []netem.NodeID{0},
	}
}

func (e *testEnv) Now() float64 { return float64(e.eng.Now()) }
func (e *testEnv) Schedule(at float64, fn func()) {
	if at < e.Now() {
		at = e.Now()
	}
	e.eng.Schedule(sim.Time(at), fn)
}
func (e *testEnv) Stream(name string) *sim.RNG     { return e.master.Stream(name) }
func (e *testEnv) Members() []netem.NodeID         { return e.members }
func (e *testEnv) Topo() *netem.Topology           { return e.net.Topo }
func (e *testEnv) LinksChanged(ls []netem.LinkRef) { e.net.LinksChanged(ls) }
func (e *testEnv) Fail(id netem.NodeID)            { e.failed = append(e.failed, id) }
func (e *testEnv) Sources() []netem.NodeID         { return e.sources }

func compileOn(t *testing.T, s *Scenario, n int) *Program {
	t.Helper()
	p, err := s.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseTrace(t *testing.T) {
	tr, err := ParseTrace("# c\nduration 30\n0 100\n10 50 # tail\n20 80\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Times) != 3 || tr.Times[1] != 10 || tr.Values[2] != 80 || tr.Duration != 30 {
		t.Fatalf("parsed %+v", tr)
	}
	for _, bad := range []string{"", "0 1 2\n", "abc def\n", "duration\n0 1\n"} {
		if _, err := ParseTrace(bad); err == nil {
			t.Fatalf("ParseTrace(%q) accepted", bad)
		}
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Times: []float64{0, 10}, Values: []float64{100, 50}}
	if err := tr.validate(false); err != nil {
		t.Fatal(err)
	}
	if err := tr.validate(true); err == nil {
		t.Fatal("looping trace without duration accepted")
	}
	if err := (&Trace{Times: []float64{5}, Values: []float64{1}}).validate(false); err == nil {
		t.Fatal("trace not starting at 0 accepted")
	}
	if err := (&Trace{Times: []float64{0, 0}, Values: []float64{1, 1}}).validate(false); err == nil {
		t.Fatal("non-increasing times accepted")
	}
	if err := (&Trace{Times: []float64{0}, Values: []float64{0}}).validate(false); err == nil {
		t.Fatal("zero value accepted (emulator treats 0 bandwidth as unlimited)")
	}
}

func TestLoadFileMixedCompilesAndLints(t *testing.T) {
	s, err := LoadFile("testdata/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	p := compileOn(t, s, 20)
	tl := p.Timeline()
	for _, want := range []string{"flash-crowd wave 0", "flash-crowd wave 1",
		"dsl-evening.trace", "churn", "outage"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
	if p.Waves() == nil {
		t.Fatal("mixed scenario lost its waves")
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		s    *Scenario
	}{
		{"unknown kind", New("x", Event{Kind: "melt"})},
		{"setbw no links", New("x", Event{Kind: KindSetBW, BWKbps: 10})},
		{"setbw zero bw", New("x", SetBW(0, LinkSet{All: true}, 0))},
		{"pair out of range", New("x", SetBW(0, LinkSet{Pairs: [][2]int{{0, 99}}}, 1e5))},
		{"two selectors", New("x", Event{Kind: KindSetBW, BWKbps: 1,
			Links: &LinkSet{All: true, Nodes: []int{1}}})},
		{"degrade no period", New("x", Event{Kind: KindDegrade})},
		{"churn no lifetime", New("x", Event{Kind: KindChurn, Frac: 0.5})},
		{"churn bad dist", New("x", Churn(0, 0.5, Dist{Kind: "zipf", Mean: 1}))},
		{"fail out of range", New("x", Fail(1, 99))},
		{"trace unresolved file", New("x", Event{Kind: KindTrace, TraceFile: "nope.trace",
			Links: &LinkSet{All: true}})},
		{"wave first not zero", New("x", FlashCrowd(Wave{At: 5, Frac: 1}))},
		{"wave overlap", New("x", FlashCrowd(Wave{At: 0, Nodes: []int{0, 1}},
			Wave{At: 10, Nodes: []int{1, 2, 3, 4, 5, 6, 7}}))},
		{"waves not covering", New("x", FlashCrowd(Wave{At: 0, Nodes: []int{0, 1}},
			Wave{At: 10, Nodes: []int{2, 3}}))},
		{"two flashcrowds", New("x", FlashCrowd(Wave{At: 0, Frac: 1}),
			FlashCrowd(Wave{At: 0, Frac: 1}))},
		// A process that fires again faster than minPeriod floods the queue,
		// or, at 1e-300 s, never lets the clock move.
		{"scale_bw period below the floor", New("x", Event{Kind: KindScaleBW, At: 1, Period: 1e-300, Factor: 0.999,
			Links: &LinkSet{Pairs: [][2]int{{1, 2}}}})},
		{"set_bw period below the floor", New("x", Event{Kind: KindSetBW, Period: 1e-4, BWKbps: 1,
			Links: &LinkSet{All: true}})},
		{"degrade period below the floor", New("x", Degrade(1e-4, 0.5, 0.5, 0.5, 0))},
		{"outage mean_up below the floor", New("x", Outage(0, LinkSet{All: true}, 1e-4, 1, 1e3))},
		{"outage mean_down below the floor", New("x", Outage(0, LinkSet{All: true}, 1, 1e-4, 1e3))},
		{"looped trace cycle below the floor", New("x", Event{Kind: KindTrace, Loop: true, Stretch: 1e-4,
			Trace: &Trace{Times: []float64{0}, Values: []float64{1}, Duration: 1}, Links: &LinkSet{All: true}})},
	}
	for _, c := range cases {
		if _, err := c.s.Compile(8); err == nil {
			t.Errorf("%s: compiled without error", c.name)
		}
	}
}

func TestSetAndScaleBWTimeline(t *testing.T) {
	env := newTestEnv(6, 1)
	s := New("t",
		SetBW(10, LinkSet{Pairs: [][2]int{{1, 2}}}, netem.Kbps(100)),
		ScaleBW(5, LinkSet{Nodes: []int{3}, Dir: "in"}, 0.5),
	)
	// Periodic halving with a floor: link (4,5) halves every 2 s from t=20,
	// clamped at 1/4 of original.
	ev := ScaleBW(20, LinkSet{Pairs: [][2]int{{4, 5}}}, 0.5)
	ev.Period = 2
	ev.Floor = 0.25
	s.Events = append(s.Events, ev)
	compileOn(t, s, 6).Apply(env)

	orig := netem.Mbps(2)
	env.eng.RunUntil(4)
	if got := env.Topo().CoreBW(2, 3); got != orig {
		t.Fatalf("scale fired early: %v", got)
	}
	env.eng.RunUntil(15)
	if got := env.Topo().CoreBW(1, 2); got != netem.Kbps(100) {
		t.Fatalf("set_bw: got %v", got)
	}
	if got := env.Topo().CoreBW(2, 3); got != orig*0.5 {
		t.Fatalf("scale_bw inbound of 3: got %v", got)
	}
	if got := env.Topo().CoreBW(3, 2); got != orig {
		t.Fatalf("scale_bw touched outbound of 3: got %v", got)
	}
	env.eng.RunUntil(200)
	if got, want := env.Topo().CoreBW(4, 5), orig*0.25; got != want {
		t.Fatalf("periodic scale floor: got %v want %v", got, want)
	}
}

func TestTraceReplayLoopAndScaleMode(t *testing.T) {
	env := newTestEnv(4, 2)
	tr := &Trace{Times: []float64{0, 10}, Values: []float64{100, 50}, Duration: 20}
	s := New("t", TraceReplay(0, LinkSet{Pairs: [][2]int{{1, 2}}}, tr, true))
	compileOn(t, s, 4).Apply(env)
	at := func(ts float64) float64 {
		env.eng.RunUntil(sim.Time(ts))
		return env.Topo().CoreBW(1, 2)
	}
	if got := at(1); got != netem.Kbps(100) {
		t.Fatalf("t=1: %v", got)
	}
	if got := at(11); got != netem.Kbps(50) {
		t.Fatalf("t=11: %v", got)
	}
	if got := at(21); got != netem.Kbps(100) {
		t.Fatalf("t=21 (looped): %v", got)
	}
	if got := at(31); got != netem.Kbps(50) {
		t.Fatalf("t=31 (looped): %v", got)
	}

	// Scale mode multiplies the original bandwidth.
	env2 := newTestEnv(4, 2)
	ev := TraceReplay(0, LinkSet{Pairs: [][2]int{{1, 2}}},
		&Trace{Times: []float64{0}, Values: []float64{0.25}}, false)
	ev.Mode = "scale"
	compileOn(t, New("t2", ev), 4).Apply(env2)
	env2.eng.RunUntil(1)
	if got, want := env2.Topo().CoreBW(1, 2), netem.Mbps(2)*0.25; got != want {
		t.Fatalf("scale mode: got %v want %v", got, want)
	}
}

func TestTraceStretch(t *testing.T) {
	env := newTestEnv(4, 3)
	ev := TraceReplay(0, LinkSet{Pairs: [][2]int{{1, 2}}},
		&Trace{Times: []float64{0, 10}, Values: []float64{100, 50}}, false)
	ev.Stretch = 2
	compileOn(t, New("t", ev), 4).Apply(env)
	env.eng.RunUntil(15)
	if got := env.Topo().CoreBW(1, 2); got != netem.Kbps(100) {
		t.Fatalf("stretched point fired early: %v", got)
	}
	env.eng.RunUntil(21)
	if got := env.Topo().CoreBW(1, 2); got != netem.Kbps(50) {
		t.Fatalf("stretched point missing at t=21: %v", got)
	}
}

func TestOutageDropsAndRestores(t *testing.T) {
	env := newTestEnv(4, 4)
	orig := env.Topo().CoreBW(1, 2)
	s := New("t", Outage(0, LinkSet{Pairs: [][2]int{{1, 2}}}, 5, 2, netem.Kbps(8)))
	compileOn(t, s, 4).Apply(env)
	sawDown, sawRestore := false, false
	for ts := 1.0; ts <= 120; ts++ {
		env.eng.RunUntil(sim.Time(ts))
		switch env.Topo().CoreBW(1, 2) {
		case netem.Kbps(8):
			sawDown = true
		case orig:
			if sawDown {
				sawRestore = true
			}
		}
	}
	if !sawDown || !sawRestore {
		t.Fatalf("outage process: down=%v restore=%v", sawDown, sawRestore)
	}
}

// TestCompileIsolatesProgramFromLaterEdits pins Compile's deep copy: a
// validated Program must not observe mutations made to the scenario after
// compilation.
func TestCompileIsolatesProgramFromLaterEdits(t *testing.T) {
	s := New("t", SetBW(1, LinkSet{Pairs: [][2]int{{1, 2}}}, netem.Kbps(100)))
	p := compileOn(t, s, 6)
	s.Events[0].Links.Pairs[0] = [2]int{3, 4} // would be out of spec post-validation
	env := newTestEnv(6, 1)
	p.Apply(env)
	env.eng.RunUntil(2)
	if got := env.Topo().CoreBW(1, 2); got != netem.Kbps(100) {
		t.Fatalf("program followed a post-compile edit: link (1,2) = %v", got)
	}
	if got := env.Topo().CoreBW(3, 4); got != netem.Mbps(2) {
		t.Fatalf("program mutated the edited target: link (3,4) = %v", got)
	}
}

// TestOutageRestoresCurrentBandwidth pins outage composition: recovery must
// restore the bandwidth the link had when the outage began — including
// mutations from other events — not a t=0 snapshot.
func TestOutageRestoresCurrentBandwidth(t *testing.T) {
	const seed, meanUp, meanDown = 11, 30.0, 5.0
	// Replicate the outage process's first two draws to place a set_bw
	// strictly before the first down-transition.
	rng := sim.NewRNG(seed).Stream("outage")
	up := Dist{Kind: "exp", Mean: meanUp}
	down := Dist{Kind: "exp", Mean: meanDown}
	firstDown := up.Sample(rng)
	firstUp := firstDown + down.Sample(rng)

	env := newTestEnv(4, seed)
	s := New("t",
		Outage(0, LinkSet{Pairs: [][2]int{{1, 2}}}, meanUp, meanDown, netem.Kbps(8)),
		SetBW(firstDown/2, LinkSet{Pairs: [][2]int{{1, 2}}}, netem.Kbps(123)),
	)
	compileOn(t, s, 4).Apply(env)
	env.eng.RunUntil(sim.Time(firstDown * 0.75))
	if got := env.Topo().CoreBW(1, 2); got != netem.Kbps(123) {
		t.Fatalf("set_bw before outage: %v", got)
	}
	env.eng.RunUntil(sim.Time((firstDown + firstUp) / 2))
	if got := env.Topo().CoreBW(1, 2); got != netem.Kbps(8) {
		t.Fatalf("link not down mid-outage: %v", got)
	}
	env.eng.RunUntil(sim.Time(firstUp) + 1e-6)
	if got := env.Topo().CoreBW(1, 2); got != netem.Kbps(123) {
		t.Fatalf("recovery restored %v, want the pre-outage %v (set_bw value)",
			got, netem.Kbps(123))
	}
}

func TestChurnDeterministicAndSpareSources(t *testing.T) {
	run := func(seed int64) []netem.NodeID {
		env := newTestEnv(10, seed)
		s := New("t", Churn(5, 0.5, Dist{Kind: "exp", Mean: 10}))
		compileOn(t, s, 10).Apply(env)
		env.eng.RunUntil(1000)
		return env.failed
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("churn failed nobody")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different failure counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different failure order: %v vs %v", a, b)
		}
	}
	for _, id := range a {
		if id == 0 {
			t.Fatal("churn killed a source")
		}
	}
	if c := run(8); len(c) == len(a) && func() bool {
		for i := range c {
			if c[i] != a[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical churn schedules")
	}
}

func TestParetoLifetime(t *testing.T) {
	rng := sim.NewRNG(3)
	d := Dist{Kind: "pareto", Alpha: 1.5, Min: 10}
	for i := 0; i < 1000; i++ {
		if l := d.Sample(rng); l < 10 {
			t.Fatalf("pareto lifetime %v below min", l)
		}
	}
}

func TestResolveWavesFractional(t *testing.T) {
	s := New("t", FlashCrowd(Wave{At: 0, Frac: 0.5}, Wave{At: 30}))
	p := compileOn(t, s, 11)
	cohorts := p.ResolveWaves(sim.NewRNG(1).Stream("waves"))
	if len(cohorts) != 2 {
		t.Fatalf("got %d cohorts", len(cohorts))
	}
	if cohorts[0][0] != 0 {
		t.Fatalf("origin not leading wave 0: %v", cohorts[0])
	}
	seen := make(map[netem.NodeID]bool)
	total := 0
	for _, c := range cohorts {
		for _, id := range c {
			if seen[id] {
				t.Fatalf("node %d in two cohorts", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != 11 {
		t.Fatalf("cohorts cover %d of 11 members", total)
	}
	// 0.5 of the 10 non-origin members plus the origin.
	if len(cohorts[0]) != 6 {
		t.Fatalf("wave 0 cohort size %d, want 6", len(cohorts[0]))
	}
	again := p.ResolveWaves(sim.NewRNG(1).Stream("waves"))
	for i := range cohorts {
		for j := range cohorts[i] {
			if cohorts[i][j] != again[i][j] {
				t.Fatal("wave resolution not deterministic per seed")
			}
		}
	}
}

func TestLinkSetFracSampling(t *testing.T) {
	env := newTestEnv(10, 5)
	ls := &LinkSet{Frac: 0.3, Dir: "in"}
	r := resolveLinkSet(ls, env, "")
	// 3 sampled nodes × 9 inbound links each.
	if len(r) != 27 {
		t.Fatalf("resolved %d core links, want 27", len(r))
	}
	r2 := resolveLinkSet(ls, newTestEnv(10, 5), "")
	for i := range r {
		if r[i] != r2[i] {
			t.Fatal("frac link sampling not deterministic per seed")
		}
	}
}

// linksBySet is LinkSet.links's core-link walk as it was before it marked
// nodes: every link in Dir between a chosen node and a member, kept the first
// time a set of listed links has not seen it.
func linksBySet(dir string, nodes, members []netem.NodeID) []netem.LinkRef {
	var out []netem.LinkRef
	seen := make(map[netem.LinkRef]bool)
	add := func(src, dst netem.NodeID) {
		ref := netem.LinkRef{Src: src, Dst: dst}
		if src != dst && !seen[ref] {
			seen[ref] = true
			out = append(out, ref)
		}
	}
	for _, v := range nodes {
		for _, o := range members {
			if dir == "in" || dir == "both" {
				add(o, v)
			}
			if dir == "out" || dir == "both" {
				add(v, o)
			}
		}
	}
	return out
}

// TestLinkSetListsEachLinkOnce holds the core-link walk to the set-based
// reference above, order included: a node repeated in Nodes adds nothing,
// and under "both" the links between two chosen nodes are listed once, where
// the first of the two is walked.
func TestLinkSetListsEachLinkOnce(t *testing.T) {
	ids := func(v ...int) []netem.NodeID {
		out := make([]netem.NodeID, len(v))
		for i, x := range v {
			out[i] = netem.NodeID(x)
		}
		return out
	}
	all := ids(0, 1, 2, 3, 4, 5, 6, 7)
	for _, tc := range []struct {
		name           string
		nodes, members []netem.NodeID
	}{
		{"a repeated node", ids(3, 1, 3, 3), all},
		{"overlapping nodes", ids(5, 2, 7, 2, 5, 0), all},
		{"every member", all, all},
		{"members apart", ids(2, 6, 4, 6, 2), ids(0, 2, 4, 6)},
	} {
		for _, dir := range []string{"in", "out", "both"} {
			ls := &LinkSet{Dir: dir}
			got := ls.links(tc.nodes, tc.members)
			want := linksBySet(dir, tc.nodes, tc.members)
			if !slices.Equal(got, want) {
				t.Errorf("%s, dir %s: links %v, want %v", tc.name, dir, got, want)
			}
		}
	}
}

func TestAccessLinkSelection(t *testing.T) {
	env := newTestEnv(6, 6)
	s := New("t", SetBW(1, LinkSet{Nodes: []int{2, 3}, Access: "in"}, netem.Kbps(256)))
	compileOn(t, s, 6).Apply(env)
	env.eng.RunUntil(2)
	if env.Topo().AccessIn[2] != netem.Kbps(256) || env.Topo().AccessIn[3] != netem.Kbps(256) {
		t.Fatalf("access-in not set: %v %v", env.Topo().AccessIn[2], env.Topo().AccessIn[3])
	}
	if env.Topo().AccessOut[2] != netem.Mbps(6) || env.Topo().AccessIn[1] != netem.Mbps(6) {
		t.Fatal("access selection leaked onto other links")
	}
}

// TestFitsRefusesWritesToFixedLinks walks the selectors over two compact
// clusters of five, whose inter-cluster links cannot be written: a selector
// whose core links span members, and a pair that crosses, are refused with
// the event and a link named; same-cluster pairs and access selectors fit,
// and so does everything on one cluster or on a dense topology.
func TestFitsRefusesWritesToFixedLinks(t *testing.T) {
	two := netem.CompactClusteredTopology(10, 5, 1)
	one := netem.CompactClusteredTopology(10, 10, 1)
	dense := netem.NewTopology(10)
	for _, tc := range []struct {
		name string
		ev   Event
		link string // the fixed link named on the two-cluster topology; "" when the event fits
	}{
		{"frac in", ScaleBW(1, LinkSet{Frac: 0.1, Dir: "in"}, 0.5), "5→0"},
		{"all", SetBW(0, LinkSet{All: true}, 1e5), "5→0"},
		{"nodes out", ScaleBW(2, LinkSet{Nodes: []int{7, 8}, Dir: "out"}, 0.5), "7→0"},
		{"degrade", Degrade(5, 0.5, 0.5, 0.5, 0), "5→0"},
		{"crossing pair", SetBW(0, LinkSet{Pairs: [][2]int{{1, 2}, {3, 8}}}, 1e5), "3→8"},
		{"same-cluster pairs", SetBW(0, LinkSet{Pairs: [][2]int{{1, 2}, {8, 6}}}, 1e5), ""},
		{"frac access", ScaleBW(1, LinkSet{Frac: 0.5, Access: "in"}, 0.5), ""},
		{"all access", ScaleBW(1, LinkSet{All: true, Access: "both"}, 0.5), ""},
		{"churn", Churn(0, 0.5, Dist{Kind: "exp", Mean: 30}), ""},
	} {
		p := compileOn(t, New("fits", tc.ev), 10)
		err := p.Fits(two)
		if tc.link == "" && err != nil {
			t.Errorf("%s: refused on two clusters: %v", tc.name, err)
		}
		if tc.link != "" && (err == nil || !strings.Contains(err.Error(), "event 0 ("+tc.ev.Kind) || !strings.Contains(err.Error(), "core link "+tc.link)) {
			t.Errorf("%s: Fits = %v, want event 0 and core link %s named", tc.name, err, tc.link)
		}
		for name, topo := range map[string]*netem.Topology{"one compact cluster": one, "dense": dense} {
			if err := p.Fits(topo); err != nil {
				t.Errorf("%s on %s: %v", tc.name, name, err)
			}
		}
	}
	if err := compileOn(t, New("fits"), 12).Fits(two); err == nil || !strings.Contains(err.Error(), "compiled for 12 nodes") {
		t.Errorf("size mismatch: Fits = %v", err)
	}
}
