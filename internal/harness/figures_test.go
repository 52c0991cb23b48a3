package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenFigures pins every figure's rendered text bit for bit. The
// hashes were recorded on the commit before the figures became a table
// (Render(n, scale, 11)); Figure 12 at TestScale was re-recorded once, with
// that change, because its cascade interval now scales with the file — the
// old render finished before the first drop.
func TestGoldenFigures(t *testing.T) {
	cases := []struct {
		num   int
		scale Scale
		want  string
	}{
		{4, TestScale, "8f1edb25695020a3b890d977e88377216969c0e44f97d4135e291b1cd370ceb5"},
		{5, TestScale, "e6f3685fcbdb7cedaeefa9c09430ab3d55c288e637f0180a13ebdc148e67511a"},
		{6, TestScale, "9bfaee1ddd26d436a79a5ab21301deea6b9167ab5e7821781d182e8a0721dc0d"},
		{7, TestScale, "cde6a7091cdeaf592732a038c04f50c0b11285425d2b01997f664e3fc92e0538"},
		{8, TestScale, "8533e1a1565297124146322c7178a280f5e9193262fc5dc2302ac94cda4d72c3"},
		{9, TestScale, "277d173a132e8952749497069094b9facb593cf3a8bdae5db2927c3cdcd65f74"},
		{10, TestScale, "e15e225947b9809d16e71aae2c0f418ca73ac99bcb5f41e868235768f22aef86"},
		{11, TestScale, "7b338751ce11f1656f470e59b6e50eecae1d70157cb1838993def3fc577a09f7"},
		{12, TestScale, "d9ffd6ade6159772d5c192693bbe110eef4f24607e0c55709750dd90d1966421"},
		{13, TestScale, "016c3987eb9b2475e2139fa95cae4525d01407a577a72365aadb5d768d019ca6"},
		{14, TestScale, "25647663d0287f703840173279a856e9e13044f349643e3816e61f3f36375642"},
		{15, TestScale, "9ed99dfe2fa5d49a158d96fb28cd119bfb18bb06b79c788552da0f7e3a617c7d"},
		{12, FullScale, "b890382e8ceb0f179a88b390efb4a09de64ea5450b1253d676e2efbe2a130a7d"},
	}
	for _, c := range cases {
		if c.scale == FullScale && testing.Short() {
			continue
		}
		out, err := Render(c.num, c.scale, 11)
		if err != nil {
			t.Fatalf("figure %d: %v", c.num, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != c.want {
			t.Errorf("figure %d at %+v: sha256 %s, want %s", c.num, c.scale, got, c.want)
		}
	}
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
