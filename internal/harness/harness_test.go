package harness

import (
	"math"
	"strings"
	"testing"

	"bulletprime/internal/core"
	"bulletprime/internal/netem"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
)

// applyOn compiles s for the rig and applies it through the rig's door.
func applyOn(t *testing.T, rig *Rig, s *scenario.Scenario) {
	t.Helper()
	p, err := s.Compile(len(rig.Members))
	if err != nil {
		t.Fatal(err)
	}
	rig.ApplyScenario(p)
}

func TestScaleBounds(t *testing.T) {
	sc := Scale{Nodes: 0.01, File: 0.0001}
	if sc.nodes(100) < 8 {
		t.Fatal("node floor violated")
	}
	if sc.file(100e6) < 512*1024 {
		t.Fatal("file floor violated")
	}
	if FullScale.nodes(100) != 100 {
		t.Fatal("full scale distorted node count")
	}
	if FullScale.file(100e6) != 100e6 {
		t.Fatal("full scale distorted file size")
	}
}

func TestWorkloadBlocks(t *testing.T) {
	w := Workload{FileBytes: 100e6, BlockSize: 16 * 1024}
	if got := w.NumBlocks(); got != 6104 {
		t.Fatalf("NumBlocks = %d, want 6104", got)
	}
	if (Workload{FileBytes: 1, BlockSize: 16384}).NumBlocks() != 1 {
		t.Fatal("tiny file must have 1 block")
	}
}

func TestTopologyBuilders(t *testing.T) {
	rng := sim.NewRNG(1).Stream("topo")
	cases := map[string]*netem.Topology{
		"modelnet":    ModelNetTopology(20)(rng),
		"lossless":    LosslessModelNetTopology(20)(rng),
		"constrained": ConstrainedAccessTopology(20)(rng),
		"highbdp":     HighBDPTopology(20, 0, 0.015)(rng),
		"cascade":     CascadeTopology()(rng),
		"planetlab":   PlanetLabTopology(20)(rng),
	}
	for name, topo := range cases {
		if topo.N < 8 {
			t.Fatalf("%s: too few nodes", name)
		}
		for i := 0; i < topo.N; i++ {
			if topo.AccessIn[i] <= 0 || topo.AccessOut[i] <= 0 {
				t.Fatalf("%s: node %d has no access bandwidth", name, i)
			}
		}
	}
	// Spot checks on the per-figure parameters.
	if got := cases["constrained"].AccessIn[3]; got != netem.Kbps(800) {
		t.Fatalf("constrained access = %v, want 100 KB/s", got)
	}
	if got := cases["cascade"].CoreBW(1, 7); got != netem.Mbps(5) {
		t.Fatalf("cascade 8th-node link = %v, want 5 Mbps", got)
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if i != j && cases["lossless"].CoreLoss(netem.NodeID(i), netem.NodeID(j)) != 0 {
				t.Fatal("lossless topology has loss")
			}
		}
	}
}

// clusteredWithSetters and planetLabWithSetters are ClusteredTopology and
// PlanetLabTopology as they were written before the one-pass builders: the
// same draws through the per-pair setters.
func clusteredWithSetters(n, clusterSize int, rng *sim.RNG) *netem.Topology {
	t := netem.NewTopology(n)
	t.SetUniformAccess(netem.Mbps(6), netem.Mbps(6), netem.MS(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			src, dst := netem.NodeID(i), netem.NodeID(j)
			if i/clusterSize == j/clusterSize {
				t.SetCoreBW(src, dst, netem.Mbps(10))
				t.SetCoreDelay(src, dst, netem.MS(rng.Uniform(1, 5)))
			} else {
				t.SetCoreBW(src, dst, netem.Mbps(1.5))
				t.SetCoreDelay(src, dst, netem.MS(rng.Uniform(20, 200)))
				t.SetCoreLoss(src, dst, rng.Uniform(0, 0.02))
			}
		}
	}
	return t
}

func planetLabWithSetters(n int, rng *sim.RNG) *netem.Topology {
	t := netem.NewTopology(n)
	for i := 0; i < n; i++ {
		var bw float64
		switch {
		case i == 0:
			bw = netem.Mbps(10)
		case rng.Float64() < 0.2:
			bw = netem.Mbps(rng.Uniform(1.5, 4))
		default:
			bw = netem.Mbps(rng.Uniform(5, 20))
		}
		t.AccessIn[i], t.AccessOut[i], t.AccessDelay[i] = bw, bw, netem.MS(1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			t.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(50))
			t.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(rng.Uniform(10, 120)))
			t.SetCoreLoss(netem.NodeID(i), netem.NodeID(j), rng.Uniform(0, 0.008))
		}
	}
	return t
}

// TestDenseBuildersMatchSetters holds the clustered and PlanetLab builders,
// which write each core row in one pass, to the per-pair setters they
// replaced: every link bit for bit, and the generator left in the same
// state.
func TestDenseBuildersMatchSetters(t *testing.T) {
	bits := math.Float64bits
	for _, tc := range []struct {
		name      string
		got, want func(*sim.RNG) *netem.Topology
	}{
		{"clustered 50/10", ClusteredTopology(50, 10), func(r *sim.RNG) *netem.Topology { return clusteredWithSetters(50, 10, r) }},
		{"clustered 75/25", ClusteredTopology(75, 25), func(r *sim.RNG) *netem.Topology { return clusteredWithSetters(75, 25, r) }},
		{"clustered 8/8", ClusteredTopology(8, 0), func(r *sim.RNG) *netem.Topology { return clusteredWithSetters(8, 8, r) }},
		{"clustered 6/2", ClusteredTopology(6, 2), func(r *sim.RNG) *netem.Topology { return clusteredWithSetters(6, 2, r) }},
		{"planetlab 41", PlanetLabTopology(41), func(r *sim.RNG) *netem.Topology { return planetLabWithSetters(41, r) }},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			gotRng, wantRng := sim.NewRNG(seed).Stream("topo"), sim.NewRNG(seed).Stream("topo")
			got, want := tc.got(gotRng), tc.want(wantRng)
			for i := 0; i < got.N; i++ {
				if bits(got.AccessIn[i]) != bits(want.AccessIn[i]) || bits(got.AccessOut[i]) != bits(want.AccessOut[i]) ||
					bits(got.AccessDelay[i]) != bits(want.AccessDelay[i]) {
					t.Fatalf("%s seed %d: node %d's access links differ from the setters' build", tc.name, seed, i)
				}
				for j := 0; j < got.N; j++ {
					s, d := netem.NodeID(i), netem.NodeID(j)
					if bits(got.CoreBW(s, d)) != bits(want.CoreBW(s, d)) || bits(got.CoreDelay(s, d)) != bits(want.CoreDelay(s, d)) ||
						bits(got.CoreLoss(s, d)) != bits(want.CoreLoss(s, d)) {
						t.Fatalf("%s seed %d: core link %d→%d differs from the setters' build", tc.name, seed, i, j)
					}
				}
			}
			if gotRng.Int63() != wantRng.Int63() {
				t.Fatalf("%s seed %d: the builder drew a different number of values", tc.name, seed)
			}
		}
	}
}

func TestRunOneCompletes(t *testing.T) {
	w := Workload{FileBytes: 1e6, BlockSize: 16 * 1024}
	for _, kind := range []ProtoKind{KindBulletPrime, KindBullet, KindBitTorrent, KindSplitStream} {
		res := RunSpec(SweepSpec{Seed: 3, TopoFn: ModelNetTopology(10), System: kind.String(), Workload: w, Deadline: 1200})
		if !res.Finished {
			t.Fatalf("%v did not finish", kind)
		}
		if res.CDF.N() != 9 {
			t.Fatalf("%v: %d completions, want 9", kind, res.CDF.N())
		}
		if res.DataBytes <= 0 {
			t.Fatalf("%v: no data bytes accounted", kind)
		}
	}
}

func TestRunOneIdenticalSeedsShareTopology(t *testing.T) {
	w := Workload{FileBytes: 1e6, BlockSize: 16 * 1024}
	spec := SweepSpec{Seed: 9, TopoFn: ModelNetTopology(10), Workload: w, Deadline: 1200}
	a, b := RunSpec(spec), RunSpec(spec)
	if a.CDF.Worst() != b.CDF.Worst() || a.CDF.Median() != b.CDF.Median() {
		t.Fatal("identical seeds produced different results")
	}
}

func TestSyntheticBandwidthChangesCumulative(t *testing.T) {
	topo := ModelNetTopology(10)(sim.NewRNG(5).Stream("topo"))
	orig := topo.CoreBW(1, 2)
	rig := NewRig(topo, 5)
	applyOn(t, rig, SyntheticBandwidthChanges(1.0))
	rig.Eng.RunUntil(10.5)
	// After 10 rounds of halving 25% of directed pairs, total core
	// bandwidth must be strictly below the original.
	lowered := 0
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j && topo.CoreBW(netem.NodeID(i), netem.NodeID(j)) < orig {
				lowered++
			}
		}
	}
	if lowered < 20 {
		t.Fatalf("only %d pairs degraded after 10 rounds", lowered)
	}
}

func TestCascadeDynamicsSchedule(t *testing.T) {
	topo := CascadeTopology()(sim.NewRNG(6).Stream("topo"))
	rig := NewRig(topo, 6)
	applyOn(t, rig, CascadeDynamics(25))
	rig.Eng.RunUntil(30)
	if got := topo.CoreBW(1, 7); got != netem.Kbps(100) {
		t.Fatalf("first link not degraded at t=30: %v", got)
	}
	if got := topo.CoreBW(2, 7); got != netem.Mbps(5) {
		t.Fatalf("second link degraded early: %v", got)
	}
	rig.Eng.RunUntil(160)
	for i := 1; i <= 6; i++ {
		if got := topo.CoreBW(netem.NodeID(i), 7); got != netem.Kbps(100) {
			t.Fatalf("link %d not degraded after full cascade: %v", i, got)
		}
	}
}

func TestFigure13Analysis(t *testing.T) {
	res := Figure13(TestScale, 7)
	if len(res.Fig.Series) != 1 || len(res.Fig.Series[0].Points) == 0 {
		t.Fatal("no inter-arrival series")
	}
	if res.AvgInterArrival <= 0 {
		t.Fatal("no average inter-arrival computed")
	}
	if res.EncodingCost <= 0 {
		t.Fatal("no encoding cost computed")
	}
}

func TestRenderEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("rendering all figures is slow")
	}
	for num := range Figures() {
		out, err := Render(num, TestScale, 11)
		if err != nil {
			t.Fatalf("figure %d: %v", num, err)
		}
		if !strings.Contains(out, "series") && num != 13 {
			t.Fatalf("figure %d output has no series", num)
		}
	}
}

func TestRenderUnknownFigure(t *testing.T) {
	if _, err := Render(99, TestScale, 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestProtoKindString(t *testing.T) {
	want := map[ProtoKind]string{
		KindBulletPrime: "BulletPrime",
		KindBullet:      "Bullet",
		KindBitTorrent:  "BitTorrent",
		KindSplitStream: "SplitStream",
		ProtoKind(9):    "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestCoreMutApplied(t *testing.T) {
	w := Workload{FileBytes: 1e6, BlockSize: 16 * 1024}
	res := RunSpec(SweepSpec{Seed: 12, TopoFn: ModelNetTopology(10), Workload: w, Deadline: 1200,
		CoreMut: func(c *core.Config) { c.Strategy = core.FirstEncountered }})
	if !res.Finished {
		t.Fatal("mutated config did not finish")
	}
}

func TestReferenceLines(t *testing.T) {
	lines := referenceLines(50, Workload{FileBytes: 100e6, BlockSize: 16 * 1024})
	if len(lines) != 2 {
		t.Fatalf("%d reference lines, want 2", len(lines))
	}
	optimal := lines[0].Points[0][0]
	feasible := lines[1].Points[0][0]
	if optimal <= 0 || feasible <= optimal {
		t.Fatalf("optimal %v, feasible %v: feasible must be slower", optimal, feasible)
	}
	// 100 MB at 6 Mbps is ~133 s.
	if optimal < 130 || optimal > 137 {
		t.Fatalf("optimal = %v, want ~133", optimal)
	}
}
