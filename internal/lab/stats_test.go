package lab

import (
	"math"
	"strings"
	"testing"

	"bulletprime/internal/golden"
)

// The bootstrap uses a fixed-seed deterministic PRNG over sorted input,
// so every value below is pinned exactly: a change to the generator, the
// resampling loop, or the percentile rule shows up as a diff here, not
// as silent drift in CI gates.

func TestBootstrapMedianCIPinned(t *testing.T) {
	a := []float64{10.0, 10.5, 11.0, 11.5, 12.0}
	ci := BootstrapMedianCI(a, 0.95, 0)
	if ci.Lo != 10.0 || ci.Hi != 12.0 || ci.Level != 0.95 {
		t.Fatalf("CI over 5 samples: %+v", ci)
	}
	if got := ci.String(); got != "[10.0, 12.0]" {
		t.Fatalf("CI string %q", got)
	}

	var big []float64
	for i := 0; i < 20; i++ {
		big = append(big, 10+0.25*float64(i))
	}
	if ci := BootstrapMedianCI(big, 0.95, 0); ci.Lo != 11.375 || ci.Hi != 13.375 {
		t.Fatalf("CI over 20 samples: %+v", ci)
	}
	// Iteration count and level are honored (and part of the pin).
	if ci := BootstrapMedianCI(big, 0.90, 500); ci.Lo != 11.5 || ci.Hi != 13.25 {
		t.Fatalf("CI 90%%/500 iters: %+v", ci)
	}
}

func TestBootstrapMedianCIOrderIndependent(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	shuffled := []float64{5, 1, 8, 3, 7, 2, 6, 4}
	a := BootstrapMedianCI(sorted, 0.95, 0)
	b := BootstrapMedianCI(shuffled, 0.95, 0)
	if a != b {
		t.Fatalf("CI depends on input order: %+v vs %+v", a, b)
	}
	// Neither input may be mutated (Gate hands it archive-owned slices).
	if shuffled[0] != 5 || shuffled[1] != 1 {
		t.Fatal("BootstrapMedianCI mutated its input")
	}
}

func TestBootstrapMedianCIDegenerate(t *testing.T) {
	if ci := BootstrapMedianCI(nil, 0.95, 0); !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
		t.Fatalf("empty-input CI should be NaN, got %+v", ci)
	}
	if ci := BootstrapMedianCI([]float64{7}, 0.95, 0); ci.Lo != 7 || ci.Hi != 7 {
		t.Fatalf("single-sample CI should be degenerate at the sample: %+v", ci)
	}
}

func TestMannWhitneyPinned(t *testing.T) {
	a := []float64{10.0, 10.5, 11.0, 11.5, 12.0}
	b := []float64{11.0, 11.4, 11.8, 12.3, 12.9}
	mw := MannWhitney(a, b)
	if mw.U != 19.5 || mw.NA != 5 || mw.NB != 5 {
		t.Fatalf("MW stats: %+v", mw)
	}
	if math.Abs(mw.POneSided-0.0866085563223501) > 1e-12 {
		t.Fatalf("MW one-sided p drifted: %v", mw.POneSided)
	}
	if math.Abs(mw.PTwoSided-2*mw.POneSided) > 1e-12 {
		t.Fatalf("two-sided p should be 2x one-sided here: %+v", mw)
	}

	// Fully separated 5v5 — the smallest repetition count the farm's
	// statistical gate is designed around — clears p < 0.05 with room.
	sep := MannWhitney(
		[]float64{10.0, 10.1, 10.2, 10.3, 10.4},
		[]float64{11.0, 11.1, 11.2, 11.3, 11.4})
	if sep.U != 25 {
		t.Fatalf("separated U = %v, want 25", sep.U)
	}
	if math.Abs(sep.POneSided-0.006092890177672409) > 1e-12 {
		t.Fatalf("separated one-sided p drifted: %v", sep.POneSided)
	}

	// Ties get average ranks and tie-corrected variance.
	ties := MannWhitney([]float64{1, 2, 2, 3}, []float64{2, 3, 3, 4})
	if ties.U != 13 || math.Abs(ties.POneSided-0.08601685446091148) > 1e-12 {
		t.Fatalf("tied-sample MW drifted: %+v", ties)
	}

	// Degenerate inputs can never reject.
	if d := MannWhitney([]float64{5, 5}, []float64{5, 5}); d.POneSided != 1 || d.PTwoSided != 1 {
		t.Fatalf("identical samples must give p=1: %+v", d)
	}
	if d := MannWhitney(nil, []float64{1, 2}); d.POneSided != 1 {
		t.Fatalf("empty side must give p=1: %+v", d)
	}
}

func TestRenderCIBarGolden(t *testing.T) {
	a := []float64{10.0, 10.5, 11.0, 11.5, 12.0}
	b := []float64{11.0, 11.4, 11.8, 12.3, 12.9}
	ciA := BootstrapMedianCI(a, 0.95, 0)
	ciB := BootstrapMedianCI(b, 0.95, 0)
	golden.Check(t, t.Name()+"/A", renderCIBar("A", sortedMedian(a), ciA, 9.5, 13.0, 40))
	golden.Check(t, t.Name()+"/B", renderCIBar("B", sortedMedian(b), ciB, 9.5, 13.0, 40))
}

func TestPerRunMetricSortedSkipsEmpty(t *testing.T) {
	runs := []*Run{
		mkRun("p", "n", "", 1, 30, 40, 50),
		mkRun("p", "n", "", 2, 10, 20, 30),
		{}, // a corrupt/empty record contributes nothing
	}
	eval, err := MetricQuantile("median")
	if err != nil {
		t.Fatal(err)
	}
	got := PerRunMetric(runs, eval)
	if len(got) != 2 || got[0] != 20 || got[1] != 40 {
		t.Fatalf("per-run medians %v, want sorted [20 40]", got)
	}
}

// TestCompareReportRepetitionStats pins that Compare only grows the
// repetition-statistics section when both sides carry >= 2 runs, and
// that it renders CI bars plus the rank test.
func TestCompareReportRepetitionStats(t *testing.T) {
	a := []*Run{
		mkRun("bulletprime", "modelnet", "", 1, 10, 12, 14),
		mkRun("bulletprime", "modelnet", "", 2, 11, 13, 15),
	}
	b := []*Run{
		mkRun("bittorrent", "modelnet", "", 1, 30, 35, 40),
		mkRun("bittorrent", "modelnet", "", 2, 32, 37, 42),
	}
	c := Compare("A", a, "B", b)
	if !c.Stats {
		t.Fatal("two-run sides must arm the stats section")
	}
	rep := c.Report()
	for _, want := range []string{"Repetition statistics", "Mann-Whitney U=", "one-sided (B slower)"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}

	single := Compare("A", a[:1], "B", b[:1])
	if single.Stats || strings.Contains(single.Report(), "Repetition statistics") {
		t.Fatal("single-run sides must not fabricate statistics")
	}
}
