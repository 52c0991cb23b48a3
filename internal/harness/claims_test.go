package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bulletprime/internal/lab"
)

// The paper's figure claims, one row each, held across seeds. A row names a
// figure, the claim in words, the two legend labels it compares (taken from
// figureTable, so the runs are the figure's own series at reduced scale)
// and the statistic of each run's completion-time CDF it reads. Every row
// runs claimSeeds seeds of only its two series; a one-sided Mann-Whitney
// rank-sum test at claimAlpha decides it — the repeated-trial standard of
// arXiv:0912.1004 — and a bootstrap interval of the per-seed difference
// reports the effect. With five seeds against five the test reaches
// p ≈ 0.006 only when every value of the faster series is below every
// value of the slower one, and p < 0.05 allows at most a few crossings.

// claimScale is the reduced scale every row runs at: 25 nodes, 8 MB.
var claimScale = Scale{Nodes: 0.25, File: 0.08}

const claimAlpha = 0.05

// claimSeeds returns the row's five seeds, from base up.
func claimSeeds(base int64) []int64 {
	return []int64{base, base + 1, base + 2, base + 3, base + 4}
}

// claimStat names a statistic of one run's completion-time CDF.
type claimStat string

const (
	statMedian claimStat = "median"
	statWorst  claimStat = "worst"
)

func (s claimStat) of(res *RunResult) float64 {
	if s == statWorst {
		return res.CDF.Worst()
	}
	return res.CDF.Median()
}

// claimRow is one figure claim: faster's statistic is below slower's.
type claimRow struct {
	figure int
	claim  string
	faster string
	slower string
	stat   claimStat
	seed   int64 // the first of claimSeeds
}

var claimRows = []claimRow{
	{4, "Bullet′ finishes ahead of Bullet on the same lossy mesh",
		"BulletPrime", "Bullet", statMedian, 21},
	{4, "Bullet′ finishes ahead of BitTorrent on the same lossy mesh",
		"BulletPrime", "BitTorrent", statMedian, 21},
	{4, "Bullet′'s slowest node finishes ahead of BitTorrent's",
		"BulletPrime", "BitTorrent", statWorst, 21},
	{5, "under changing bandwidth Bullet′ stays ahead of Bullet",
		"BulletPrime", "Bullet", statMedian, 51},
	{5, "under changing bandwidth Bullet′ stays ahead of BitTorrent",
		"BulletPrime", "BitTorrent", statMedian, 51},
}

// TestFigureClaims runs every row. Rows that share a figure, a series and
// seeds share its runs, so the table costs one run per figure, label and
// seed.
func TestFigureClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed, multi-system comparison")
	}
	type cell struct {
		figure int
		label  string
		seed   int64
	}
	var cells []cell
	var specs []SweepSpec
	index := map[cell]int{}
	for _, row := range claimRows {
		for _, label := range []string{row.faster, row.slower} {
			for _, seed := range claimSeeds(row.seed) {
				c := cell{row.figure, label, seed}
				if _, ok := index[c]; !ok {
					index[c] = len(cells)
					cells = append(cells, c)
					specs = append(specs, figureSpec(t, row.figure, claimScale, seed, label))
				}
			}
		}
	}
	results := Sweep(specs, 0)
	for i, res := range results {
		if !res.Finished {
			t.Fatalf("figure %d %s at seed %d did not finish", cells[i].figure, cells[i].label, cells[i].seed)
		}
	}
	for _, row := range claimRows {
		name := fmt.Sprintf("fig%d/%s-%s/%s", row.figure, row.faster, row.slower, row.stat)
		t.Run(name, func(t *testing.T) {
			var fast, slow, diff []float64
			for _, seed := range claimSeeds(row.seed) {
				f := row.stat.of(results[index[cell{row.figure, row.faster, seed}]])
				s := row.stat.of(results[index[cell{row.figure, row.slower, seed}]])
				fast, slow, diff = append(fast, f), append(slow, s), append(diff, s-f)
			}
			mw := lab.MannWhitney(fast, slow)
			ci := lab.BootstrapMedianCI(diff, 0.95, 0)
			t.Logf("%s: %s %s %.1f vs %s %.1f s; one-sided p = %.4f; %s lead, median of per-seed differences, 95%% CI %v s",
				row.claim, row.stat, row.faster, fast, row.slower, slow, mw.POneSided, row.faster, ci)
			if mw.POneSided >= claimAlpha {
				t.Errorf("claim does not hold: %s — per-seed %s %.1f (%s) vs %.1f (%s), one-sided p = %.4f ≥ %v",
					row.claim, row.stat, fast, row.faster, slow, row.slower, mw.POneSided, claimAlpha)
			}
		})
	}
}

// TestShotgunBeatsParallelRsync holds Figure 15's claim across seeds, on the
// figure's own curves: Shotgun's slowest node has downloaded and replayed
// the update before the slowest node of the fastest parallel-rsync sweep
// (the one of 2, 4, 8 and 16 sessions whose slowest node finishes first)
// has.
func TestShotgunBeatsParallelRsync(t *testing.T) {
	var shotgun, rsync, diff []float64
	for _, seed := range claimSeeds(151) {
		fig, err := RunFigure(15, claimScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		rs := math.Inf(1)
		for _, s := range fig.Series {
			worst := s.Points[len(s.Points)-1][0]
			switch {
			case s.Label == "Shotgun (Download + Update)":
				shotgun = append(shotgun, worst)
			case strings.HasSuffix(s.Label, "parallel rsync"):
				rs = min(rs, worst)
			}
		}
		rsync, diff = append(rsync, rs), append(diff, rs-shotgun[len(shotgun)-1])
	}
	mw := lab.MannWhitney(shotgun, rsync)
	ci := lab.BootstrapMedianCI(diff, 0.95, 0)
	t.Logf("worst Shotgun (download + update) %.1f vs fastest parallel rsync %.1f s; one-sided p = %.4f; Shotgun lead, median of per-seed differences, 95%% CI %v s",
		shotgun, rsync, mw.POneSided, ci)
	if mw.POneSided >= claimAlpha {
		t.Errorf("claim does not hold: per-seed worst %.1f (Shotgun) vs %.1f (fastest parallel rsync), one-sided p = %.4f ≥ %v",
			shotgun, rsync, mw.POneSided, claimAlpha)
	}
}
