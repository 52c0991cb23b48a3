package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bulletprime/internal/golden"
	"bulletprime/internal/shotgun"
)

// TestGoldenFigures pins every figure's rendered text bit for bit, by its
// SHA-256. The hashes were recorded on the commit before the figures became
// a table (Render(n, scale, 11)); Figure 12 at TestScale was re-recorded
// once, with that change, because its cascade interval now scales with the
// file — the old render finished before the first drop. Figure 12 also runs
// at FullScale, outside -short.
func TestGoldenFigures(t *testing.T) {
	for _, row := range figureTable {
		checkFigure(t, row.num, TestScale, fmt.Sprintf("TestGoldenFigures/%d", row.num))
	}
	if !testing.Short() {
		checkFigure(t, 12, FullScale, "TestGoldenFigures/12-full")
	}
}

func checkFigure(t *testing.T, num int, scale Scale, pin string) {
	t.Helper()
	out, err := Render(num, scale, 11)
	if err != nil {
		t.Fatalf("figure %d: %v", num, err)
	}
	golden.Check(t, pin, fmt.Sprintf("%x", sha256.Sum256([]byte(out))))
}

// TestFigureTableMatchesDesignIndex keeps DESIGN.md §1's index the figure
// table's: same rows in the same order, each with the table's number,
// description and environment text, and a series column that opens with
// the row's count of System runs.
func TestFigureTableMatchesDesignIndex(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, _ := strings.Cut(string(doc), "## 1. Experiment index")
	index, _, _ = strings.Cut(index, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(index, "\n") {
		cols := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		if _, err := strconv.Atoi(cols[0]); err == nil && strings.HasPrefix(line, "|") {
			rows = append(rows, cols)
		}
	}
	if len(rows) != len(figureTable) {
		t.Fatalf("DESIGN.md §1 indexes %d figures, the table has %d", len(rows), len(figureTable))
	}
	for i, row := range figureTable {
		runs := 0
		if row.series != nil {
			runs = len(row.series(TestScale, 1))
		}
		want := []string{strconv.Itoa(row.num), row.desc, row.env, fmt.Sprintf("%d run", runs)}
		got := rows[i]
		if len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || !strings.HasPrefix(got[3], want[3]) {
			t.Errorf("DESIGN.md §1 row %d = %q, want %q with the series column opening %q", i, got, want[:3], want[3])
		}
	}
}

// TestShotgunRunEndsAtLastDownload pins Figure 15's Shotgun series: one
// Bullet' run that ends when its slowest receiver completes, not at the
// rsync baseline's deadline, and an update curve that is shotgun.Replay of
// every receiver's download time.
func TestShotgunRunEndsAtLastDownload(t *testing.T) {
	row, _ := figureRowFor(15)
	series := row.series(TestScale, 11)
	if len(series) != 1 {
		t.Fatalf("figure 15 has %d System runs, want 1", len(series))
	}
	res := RunSpec(series[0].spec)
	if !res.Finished {
		t.Fatal("the Shotgun download did not finish")
	}
	if float64(res.EndedAt) != res.CDF.Worst() {
		t.Errorf("run ended at %v s, its slowest download at %v s", res.EndedAt, res.CDF.Worst())
	}
	var want []float64
	for _, done := range res.PerNode {
		want = append(want, shotgun.Replay(0, float64(done)))
	}
	slices.Sort(want)
	curves := series[0].curves(res)
	if len(curves) != 2 || curves[1].Label != "Shotgun (Download + Update)" {
		t.Fatalf("curves %v, want the download then the update", curves)
	}
	var got []float64
	for _, p := range curves[1].Points {
		got = append(got, p[0])
	}
	if !slices.Equal(got, want) {
		t.Errorf("update times %v, want the replay of each download %v", got, want)
	}
}
