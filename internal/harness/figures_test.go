package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"bulletprime/internal/golden"
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
