// Package golden keeps a package's output pins in testdata, compared byte for byte.
package golden

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

var dir, mu = "testdata", new(sync.Mutex) // mu guards golden.txt between parallel tests

// Check compares got with the row called name in testdata/golden.txt (sorted "name value" lines).
func Check(t testing.TB, name, got string) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	path, rows, last := dir+"/golden.txt", map[string]string{}, ""
	data, _ := os.ReadFile(path) // a ledger that cannot be read holds no rows
	for line := range strings.Lines(string(data)) {
		k, _, ok := strings.Cut(line, " ")
		if !ok || k <= last || !strings.HasSuffix(line, "\n") {
			t.Fatalf("golden: %s row %q has no value, is out of order or is listed twice", path, line)
		}
		rows[k], last = line, k
	}
	if strings.ContainsAny(name, " \t\n") || name == "" || strings.Contains(got, "\n") {
		t.Errorf("golden: row %q: a name is one word and a value one line; pin more with golden.File", name)
	} else if old, found := rows[name]; old != name+" "+got+"\n" {
		rows[name], old = name+" "+got+"\n", strings.TrimSuffix(strings.TrimPrefix(old, name+" "), "\n")
		failOrRecord(t, path, strings.Join(slices.Sorted(maps.Values(rows)), ""), found, name, old, got)
	}
}

// File compares got, a multi-line output, with the file testdata/name.
func File(t testing.TB, name string, got []byte) {
	t.Helper()
	if want, err := os.ReadFile(dir + "/" + name); err != nil || string(got) != string(want) {
		failOrRecord(t, dir+"/"+name, string(got), err == nil, name, fmt.Sprintf("%d bytes", len(want)), fmt.Sprintf("%d bytes", len(got)))
	}
}

func failOrRecord(t testing.TB, path, data string, found bool, pin, old, got string) {
	t.Helper()
	switch update := os.Getenv("GOLDEN_UPDATE") == "1"; {
	case !update && found:
		t.Errorf("golden: %s is %s, want %s (GOLDEN_UPDATE=1 re-records it)", pin, got, old)
	case !update:
		t.Errorf("golden: %s is %s and not recorded (GOLDEN_UPDATE=1 adds it)", pin, got)
	case os.WriteFile(path, []byte(data), 0o644) != nil:
		t.Errorf("golden: cannot write %s", path)
	case found:
		t.Logf("moved: %s %s → %s", pin, old, got)
	default:
		t.Logf("added: %s %s", pin, got)
	}
}
