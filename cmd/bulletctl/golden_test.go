package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden compares got with testdata/name byte for byte; -update
// rewrites the file instead.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden (regenerate with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenHelp pins the -h text of every subcommand that takes the shared
// single-run or sweep-geometry flags: names, defaults and help strings are
// the CLI's interface, and where a flag is declared is not.
func TestGoldenHelp(t *testing.T) {
	for _, cmd := range [][]string{
		{"run"}, {"sweep"}, {"trace"}, {"crosscheck"},
		{"farm", "coordinate"}, {"farm", "resume"}, {"farm", "status"},
	} {
		code, stdout, stderr := ctl(t, append(cmd, "-h")...)
		if code != 0 || stdout != "" {
			t.Fatalf("%v -h: exit %d, stdout %q", cmd, code, stdout)
		}
		checkGolden(t, "help_"+strings.Join(cmd, "_")+".txt", stderr)
	}
}

// TestGoldenTrace pins `bulletctl trace` exports byte for byte on the CI
// stream-smoke overlay (8 nodes, modelnet-clean, protocol stream, seed 7):
// both formats, and a ring small enough to evict, where the exported seq
// still counts from 0 over the spans that were kept.
func TestGoldenTrace(t *testing.T) {
	base := []string{"trace", "-nodes", "8", "-filemb", "4", "-network", "modelnet-clean",
		"-protocol", "stream", "-seed", "7"}
	for _, g := range []struct {
		file string
		args []string
	}{
		{"trace_golden.jsonl", []string{"-format", "jsonl"}},
		{"trace_golden.chrome.json", []string{"-format", "chrome"}},
		{"trace_golden_evicted.jsonl", []string{"-format", "jsonl", "-capacity", "20"}},
	} {
		code, stdout, stderr := ctl(t, append(base, g.args...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", g.args, code, stderr)
		}
		checkGolden(t, g.file, stdout)
	}
}
