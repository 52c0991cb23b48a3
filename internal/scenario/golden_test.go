package scenario

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"bulletprime/internal/netem"
)

// goldenScenario is one builder scenario with every link-writing kind in
// every selector shape: set_bw once and repeated, scale_bw with a floor,
// degrade with a floor, trace replay in set and scale mode (looped and
// stretched), an outage, churn and a fail; over pairs, nodes in/out/both,
// frac, all, and access in/out/both. It is laid out for 12 nodes.
func goldenScenario() *Scenario {
	once := SetBW(3, LinkSet{Pairs: [][2]int{{1, 2}, {2, 1}}}, netem.Kbps(500))
	repeated := SetBW(4, LinkSet{Nodes: []int{3}, Dir: "in"}, netem.Kbps(800))
	repeated.Period, repeated.Count = 7, 3
	floored := ScaleBW(2, LinkSet{Nodes: []int{4, 5}, Dir: "out"}, 0.5)
	floored.Period, floored.Floor = 3, 0.2
	degrade := Degrade(5, 0.5, 0.5, 0.5, 1.0/16)
	degrade.Count = 6
	setTrace := TraceReplay(1, LinkSet{Frac: 0.25, Dir: "both"},
		&Trace{Times: []float64{0, 4, 9}, Values: []float64{1500, 300, 900}, Duration: 12}, true)
	setTrace.Stretch, setTrace.Stream = 1.5, "trace-set"
	scaleTrace := TraceReplay(6, LinkSet{All: true, Access: "in"},
		&Trace{Times: []float64{0, 2.5}, Values: []float64{0.5, 1.25}, Duration: 5}, true)
	scaleTrace.Mode, scaleTrace.Stretch, scaleTrace.Scale = "scale", 0.5, 1.2
	return New("golden",
		once, repeated, floored, degrade, setTrace, scaleTrace,
		Outage(8, LinkSet{Nodes: []int{6, 7}, Access: "both"}, 6, 2, netem.Kbps(64)),
		SetBW(9, LinkSet{Nodes: []int{8}, Access: "out"}, netem.Kbps(1000)),
		ScaleBW(10, LinkSet{Nodes: []int{9}, Dir: "both"}, 0.7),
		ScaleBW(12, LinkSet{All: true}, 0.9),
		Churn(15, 0.3, Dist{Kind: "exp", Mean: 20}),
		Fail(25, 10, 11),
	)
}

// digestEnv is a testEnv that folds the rig's state into a SHA-256 each time
// a scenario event fires: the time, the annotations and LinksChanged batches
// the event produced (in order), every core and access bandwidth bit for bit,
// and the failed nodes.
type digestEnv struct {
	*testEnv
	h       hash.Hash
	notes   []string
	batches [][]netem.LinkRef
}

func (g *digestEnv) Schedule(at float64, fn func()) {
	g.testEnv.Schedule(at, func() {
		fn()
		g.fold()
	})
}

func (g *digestEnv) LinksChanged(ls []netem.LinkRef) {
	g.batches = append(g.batches, append([]netem.LinkRef(nil), ls...))
	g.testEnv.LinksChanged(ls)
}

func (g *digestEnv) Annotate(text string) { g.notes = append(g.notes, text) }

func (g *digestEnv) fold() {
	fmt.Fprintf(g.h, "t=%x\n", math.Float64bits(g.Now()))
	for _, s := range g.notes {
		fmt.Fprintf(g.h, "note %s\n", s)
	}
	for _, b := range g.batches {
		fmt.Fprintf(g.h, "batch %v\n", b)
	}
	g.notes, g.batches = g.notes[:0], g.batches[:0]
	topo := g.Topo()
	for i := 0; i < topo.N; i++ {
		for j := 0; j < topo.N; j++ {
			if i != j {
				fmt.Fprintf(g.h, "%x ", math.Float64bits(topo.CoreBW(netem.NodeID(i), netem.NodeID(j))))
			}
		}
		fmt.Fprintf(g.h, "| %x %x\n", math.Float64bits(topo.AccessIn[i]), math.Float64bits(topo.AccessOut[i]))
	}
	fmt.Fprintf(g.h, "failed %v\n", g.failed)
}

// TestGoldenScenario pins what every kind and selector does to a rig, event
// by event, at two seeds, and the lint timeline of the same program and of
// testdata/mixed.json.
func TestGoldenScenario(t *testing.T) {
	const n = 12
	p := compileOn(t, goldenScenario(), n)
	for seed, want := range map[int64]string{
		1: "d23e63cd0bb0a75c6080bcb0a4dde2f738a36bbd3903223d739ba83a2be8ca02",
		2: "3862eb94dc752b1406d267943e61e418b0eee94397d448e768a2084dc2957ef3",
	} {
		env := &digestEnv{testEnv: newTestEnv(n, seed), h: sha256.New()}
		p.Apply(env)
		env.eng.RunUntil(120)
		if got := fmt.Sprintf("%x", env.h.Sum(nil)); got != want {
			t.Errorf("seed %d: digest %s, want %s", seed, got, want)
		}
	}
	if got := p.Timeline(); got != goldenTimeline {
		t.Errorf("golden timeline:\n%s\nwant:\n%s", got, goldenTimeline)
	}
	s, err := LoadFile("testdata/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := compileOn(t, s, 20).Timeline(); got != mixedTimeline {
		t.Errorf("mixed.json timeline:\n%s\nwant:\n%s", got, mixedTimeline)
	}
}

const goldenTimeline = `scenario "golden" compiled for 12 nodes, 12 events
  t=    1.00s  replay inline trace (3 points, looping every 18.0s) onto core links of a sampled 25% of members as Kbps, stretch 1.5, scale 1
  t=    2.00s  scale core links (out) of 2 nodes by 0.5, every 3.0s forever, floor 0.2× original
  t=    3.00s  set 2 explicit core links to 500 Kbps
  t=    4.00s  set core links (in) of 1 nodes to 800 Kbps, every 7.0s 3 times
  t=    5.00s  degrade: every 5.0s 6 rounds, 50% victims × 50% sources, ×0.5 cumulative, floor 0.0625 (stream "dynamics")
  t=    6.00s  replay inline trace (2 points, looping every 2.5s) onto access-in links of all members as × original, stretch 0.5, scale 1.2
  t=    8.00s  outage on access-both links of 2 nodes: up ~Exp(6.0s), down ~Exp(2.0s) at 64 Kbps (stream "outage")
  t=    9.00s  set access-out links of 1 nodes to 1000 Kbps
  t=   10.00s  scale core links (both) of 1 nodes by 0.7
  t=   12.00s  scale all core links by 0.9
  t=   15.00s  churn: 30% of non-source members fail after Exp(mean 20s) lifetimes (stream "churn")
  t=   25.00s  fail nodes [10 11]
`

const mixedTimeline = `scenario "evening-rush" compiled for 20 nodes, 4 events
  DSL trace replay on three receivers' inbound links, 15% churn with exponential lifetimes, a brief recurring outage on one pair, and a two-wave flash crowd.
  t=    0.00s  flash-crowd wave 0: session over 60% of members (cohort sizes [12 8] at n=20)
  t=    5.00s  replay dsl-evening.trace (6 points, looping every 120.0s) onto core links (in) of 3 nodes as Kbps, stretch 1, scale 1
  t=   10.00s  outage on 2 explicit core links: up ~Exp(40.0s), down ~Exp(6.0s) at 64 Kbps (stream "outage")
  t=   20.00s  churn: 15% of non-source members fail after Exp(mean 60s) lifetimes (stream "churn")
  t=   45.00s  flash-crowd wave 1: session over the remainder
`
