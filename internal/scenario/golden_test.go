package scenario

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"bulletprime/internal/golden"
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
	for _, seed := range []int64{1, 2} {
		env := &digestEnv{testEnv: newTestEnv(n, seed), h: sha256.New()}
		p.Apply(env)
		env.eng.RunUntil(120)
		golden.Check(t, fmt.Sprintf("%s/seed%d", t.Name(), seed), fmt.Sprintf("%x", env.h.Sum(nil)))
	}
	golden.File(t, "golden_timeline.txt", []byte(p.Timeline()))
	s, err := LoadFile("testdata/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	golden.File(t, "mixed_timeline.txt", []byte(compileOn(t, s, 20).Timeline()))
}
