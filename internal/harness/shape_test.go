package harness

import "testing"

// Shape tests: the paper's qualitative claims asserted as invariants at
// moderate scale and one seed, on specs drawn from the figure table by
// legend label. Figure 4's ordering and Figure 5's title claim are rows of
// claims_test.go's table, held across seeds. They are skipped under -short.

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
