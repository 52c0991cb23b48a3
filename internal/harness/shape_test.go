package harness

import (
	"testing"

	"bulletprime/internal/lab"
)

// Shape tests: the paper's qualitative claims asserted as invariants at
// moderate scale, on specs drawn from the figure table by legend label.
// They are skipped under -short (each runs multi-system experiments taking
// tens of wall seconds).

// figureSpec returns the spec behind one labelled series of a figure.
func figureSpec(t *testing.T, figure int, sc Scale, seed int64, label string) SweepSpec {
	t.Helper()
	row, err := figureRowFor(figure)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range row.series(sc, seed) {
		if s.spec.Label == label {
			return s.spec
		}
	}
	t.Fatalf("figure %d has no series %q", figure, label)
	return SweepSpec{}
}

// TestShapeBulletPrimeBeatsBulletAndBT asserts the Figure 4 ordering that
// holds at every scale: Bullet' finishes ahead of Bullet and BitTorrent on
// the identical lossy topology.
func TestShapeBulletPrimeBeatsBulletAndBT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system comparison is slow")
	}
	sc := Scale{Nodes: 0.30, File: 0.10} // 30 nodes, 10 MB
	bp := RunSpec(figureSpec(t, 4, sc, 21, "BulletPrime"))
	bl := RunSpec(figureSpec(t, 4, sc, 21, "Bullet"))
	bt := RunSpec(figureSpec(t, 4, sc, 21, "BitTorrent"))
	if !bp.Finished || !bl.Finished || !bt.Finished {
		t.Fatal("a system did not finish")
	}
	if bp.CDF.Median() >= bl.CDF.Median() {
		t.Fatalf("Bullet' median %.1f not ahead of Bullet %.1f", bp.CDF.Median(), bl.CDF.Median())
	}
	if bp.CDF.Median() >= bt.CDF.Median() {
		t.Fatalf("Bullet' median %.1f not ahead of BitTorrent %.1f", bp.CDF.Median(), bt.CDF.Median())
	}
	if bp.CDF.Worst() >= bt.CDF.Worst() {
		t.Fatalf("Bullet' worst %.1f not ahead of BitTorrent worst %.1f", bp.CDF.Worst(), bt.CDF.Worst())
	}
}

// TestShapeFirstEncounteredLoses asserts the Figure 6 ordering: the
// first-encountered request strategy trails rarest-random.
func TestShapeFirstEncounteredLoses(t *testing.T) {
	if testing.Short() {
		t.Skip("strategy comparison is slow")
	}
	sc := Scale{Nodes: 0.25, File: 0.08} // 25 nodes, 8 MB
	rr := RunSpec(figureSpec(t, 6, sc, 22, "BulletPrime rarest-random request strategy"))
	fe := RunSpec(figureSpec(t, 6, sc, 22, "BulletPrime first request strategy"))
	if !rr.Finished || !fe.Finished {
		t.Fatal("a strategy did not finish")
	}
	if rr.CDF.Median() > fe.CDF.Median()*1.05 {
		t.Fatalf("rarest-random median %.1f clearly behind first-encountered %.1f",
			rr.CDF.Median(), fe.CDF.Median())
	}
}

// TestShapeDynamicOutstandingHandlesCascade asserts the Figure 12 claim:
// under cascading bandwidth drops the dynamic window beats a large fixed
// window for the constrained node.
func TestShapeDynamicOutstandingHandlesCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("cascade comparison is slow")
	}
	// At 0.6 of the file the figure runs 60 MB with 15 s between drops (100 MB
	// and 25 s at full scale; the drop interval shrinks with the file), which
	// keeps the download in flight across the whole cascade. Each drop
	// strands a fixed-50 window of ~400 KB on the newly slow link; the
	// dynamic window keeps only a couple of blocks exposed.
	run := func(label string) *RunResult {
		s := figureSpec(t, 12, Scale{File: 0.6}, 23, label)
		s.Deadline = 7200
		return RunSpec(s)
	}
	dyn := run("BulletPrime , dyn  outst")
	big := run("BulletPrime , 50    outst")
	if !dyn.Finished {
		t.Fatal("dynamic run did not finish")
	}
	// The 8th node is the last in both CDFs.
	if big.Finished && dyn.CDF.Worst() > big.CDF.Worst()*1.1 {
		t.Fatalf("dynamic worst %.1f clearly behind fixed-50 worst %.1f",
			dyn.CDF.Worst(), big.CDF.Worst())
	}
}

// TestShapeControlOverheadModest asserts the "restrict control overhead in
// favor of distributing data" tenet: Bullet' control traffic stays a small
// fraction of bytes moved.
func TestShapeControlOverheadModest(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement is slow")
	}
	res := RunSpec(figureSpec(t, 4, Scale{Nodes: 0.25, File: 0.08}, 24, "BulletPrime")) // 25 nodes, 8 MB
	if !res.Finished {
		t.Fatal("did not finish")
	}
	if ov := res.ControlOverhead(); ov > 0.10 {
		t.Fatalf("control overhead %.1f%% exceeds 10%%", ov*100)
	}
}

// TestShapeDynamicBandwidthOrdering pins the paper's title claim, Figure 5:
// under the §4.1 bandwidth-change process (every 20 s, cumulative halving)
// Bullet' finishes ahead of BitTorrent and ahead of Bullet. One run proves
// nothing about a stochastic process, so the claim is held the way the
// repeated-trial comparisons of congestion-control schemes hold theirs: five
// seeds — five topology draws and five change sequences — of each system at
// 25 nodes / 8 MB, the per-seed median download times compared by a one-sided
// Mann-Whitney rank-sum test at α = 0.05. With five against five the test can
// reach p ≈ 0.006 (exactly 1/252), and only when every Bullet' median is
// below every median of the other system.
func TestShapeDynamicBandwidthOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("fifteen runs")
	}
	const alpha = 0.05
	seeds := []int64{51, 52, 53, 54, 55}
	labels := []string{"BulletPrime", "Bullet", "BitTorrent"}
	var specs []SweepSpec
	for _, label := range labels {
		for _, seed := range seeds {
			specs = append(specs, figureSpec(t, 5, Scale{Nodes: 0.25, File: 0.08}, seed, label))
		}
	}
	medians := make(map[string][]float64)
	for i, res := range Sweep(specs, 0) {
		if !res.Finished {
			t.Fatalf("%s at seed %d did not finish", specs[i].Label, specs[i].Seed)
		}
		medians[specs[i].Label] = append(medians[specs[i].Label], res.CDF.Median())
	}
	for _, slower := range labels[1:] {
		mw := lab.MannWhitney(medians["BulletPrime"], medians[slower])
		t.Logf("Bullet' %.1f vs %s %.1f: one-sided p = %.4f", medians["BulletPrime"], slower, medians[slower], mw.POneSided)
		if mw.POneSided >= alpha {
			t.Errorf("Bullet' is not ahead of %s under dynamic bandwidth: per-seed medians %.1f vs %.1f, one-sided p = %.4f ≥ %v",
				slower, medians["BulletPrime"], medians[slower], mw.POneSided, alpha)
		}
	}
}
