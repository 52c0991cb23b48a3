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
		{4, TestScale, "37b3d94b928b9b5fc6ca512513221b9db0f367d17959ca75223598c4940659c5"},
		{5, TestScale, "67148789502f3b03a63ebf4c81ed949f6ab9887b13a87665919623d4a9272c20"},
		{6, TestScale, "9aeefeb1bb8b7201fd03b104b42937ea0b74fb4e81fc910371b02b86127eb6e7"},
		{7, TestScale, "d991b690189759c3fd05c0eeae3bd0a1d98701f48f0c7ad53e4957586705d6b5"},
		{8, TestScale, "128a981f77f09de619d389576a46dd9732fa2ad600d21952faabb20fab8d29b3"},
		{9, TestScale, "9e7cd35d74f4b55103e7700404c6626603eab4505ae03f7217e1a1be2ada63c3"},
		{10, TestScale, "e15e225947b9809d16e71aae2c0f418ca73ac99bcb5f41e868235768f22aef86"},
		{11, TestScale, "7ecb48640feadd74a4aafd51b85096289953fcbf91e3ae695b54f09febf1efec"},
		{12, TestScale, "b4810b93b68ce24a96e52c08171ffeeefb178c9939be99fd0a49f01f2c0c7e49"},
		{13, TestScale, "b51216364063baf61c8a3c00c1392f03288bedacee2ae1b90aa55aceed109419"},
		{14, TestScale, "f685ac3a14ffb6b3d92e91abab01ac8db5e8e634a5d000d1b5f3e210b030fa41"},
		{15, TestScale, "bbf5152772adb43d3c83fe6ecc5d4798b03b5bede45c3f65f6acf67da9b459cf"},
		{12, FullScale, "014a2fb00f5f3b913a230d22c59b68025b2d4f5b544306f89376897f2af4aa40"},
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
