package main

import (
	"bytes"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// Re-exec mode: behave as the shotgun binary. The tests spawn
	// `<test-binary> diff ...` with this variable set, so main runs with its
	// own argument parsing and exit codes.
	if os.Getenv("SHOTGUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runShotgun runs this test binary as the shotgun command and returns its
// standard output, failing the test on a non-zero exit.
func runShotgun(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SHOTGUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("shotgun %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// writeTree creates the files of tree (slash-separated relative paths)
// under dir.
func writeTree(t *testing.T, dir string, tree map[string][]byte) {
	t.Helper()
	for p, data := range tree {
		full := filepath.Join(dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiffStatApplyRoundTrip diffs two trees into a bundle, inspects it, and
// applies it to a copy of the old tree, which must then equal the new tree
// byte for byte: changed files rewritten, a new file created, a deleted one
// gone.
func TestDiffStatApplyRoundTrip(t *testing.T) {
	image := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KB, many delta blocks
	patched := bytes.Clone(image)
	copy(patched[30000:], "a patch in the middle of the image")
	oldTree := map[string][]byte{
		"README":       []byte("version 1\n"),
		"bin/image":    image,
		"lib/same.so":  []byte("unchanged library"),
		"obsolete.cfg": []byte("removed in version 2"),
	}
	newTree := map[string][]byte{
		"README":      []byte("version 2\n"),
		"bin/image":   patched,
		"lib/same.so": []byte("unchanged library"),
		"lib/new.so":  []byte("added in version 2"),
	}
	root := t.TempDir()
	oldDir, newDir, target := filepath.Join(root, "v1"), filepath.Join(root, "v2"), filepath.Join(root, "host")
	writeTree(t, oldDir, oldTree)
	writeTree(t, newDir, newTree)
	writeTree(t, target, oldTree)
	bundle := filepath.Join(root, "update.sgb")

	out := runShotgun(t, "diff", "-old", oldDir, "-new", newDir, "-out", bundle, "-version", "2")
	if !strings.Contains(out, "version 2, 3 changed files, 1 deletions") {
		t.Errorf("diff summary:\n%s", out)
	}

	out = runShotgun(t, "stat", "-bundle", bundle)
	for _, want := range []string{"version 2,", "create lib/new.so", "delta  bin/image", "delta  README", "delete obsolete.cfg"} {
		if !strings.Contains(out, want) {
			t.Errorf("stat output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "lib/same.so") {
		t.Errorf("stat lists an unchanged file:\n%s", out)
	}

	out = runShotgun(t, "apply", "-old", target, "-bundle", bundle)
	if !strings.Contains(out, "applied bundle v2") || !strings.Contains(out, "1 removed") {
		t.Errorf("apply summary:\n%s", out)
	}
	if got := mustReadTree(target); !maps.EqualFunc(got, newTree, bytes.Equal) {
		t.Fatalf("applied tree has %d files, want the new tree's %d byte for byte", len(got), len(newTree))
	}
}
