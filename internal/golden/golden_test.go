package golden

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// recorder is a testing.TB that keeps what a pin reports; its Fatalf ends
// the goroutine, as testing.T's does.
type recorder struct {
	testing.TB
	errs, logs []string
}

func (r *recorder) Helper()                   {}
func (r *recorder) Errorf(f string, a ...any) { r.errs = append(r.errs, fmt.Sprintf(f, a...)) }
func (r *recorder) Logf(f string, a ...any)   { r.logs = append(r.logs, fmt.Sprintf(f, a...)) }
func (r *recorder) Fatalf(f string, a ...any) { r.Errorf(f, a...); runtime.Goexit() }

// pin runs fn against a recorder on a goroutine of its own, so a Fatalf
// ends only fn.
func pin(fn func(testing.TB)) *recorder {
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(r)
	}()
	<-done
	return r
}

// ledger points the package at a fresh testdata directory holding
// golden.txt with the given content, with GOLDEN_UPDATE off, and returns a
// reader of that file.
func ledger(t *testing.T, content string) func() string {
	t.Helper()
	t.Setenv("GOLDEN_UPDATE", "")
	old := dir
	dir = t.TempDir()
	t.Cleanup(func() { dir = old })
	path := filepath.Join(dir, "golden.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return func() string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
}

// want fails unless the recorder holds exactly the given number of errors
// and logs, and the first of each contains every listed fragment.
func (r *recorder) want(t *testing.T, errs, logs int, fragments ...string) {
	t.Helper()
	if len(r.errs) != errs || len(r.logs) != logs {
		t.Fatalf("errors %q, logs %q; want %d errors and %d logs", r.errs, r.logs, errs, logs)
	}
	first := strings.Join(append(r.errs, r.logs...)[:min(1, errs+logs)], "")
	for _, f := range fragments {
		if !strings.Contains(first, f) {
			t.Errorf("%q does not contain %q", first, f)
		}
	}
}

func TestMismatchNamesRowAndValues(t *testing.T) {
	read := ledger(t, "a 1\nb/c two words\n")
	pin(func(tb testing.TB) { Check(tb, "b/c", "two words") }).want(t, 0, 0)
	pin(func(tb testing.TB) { Check(tb, "b/c", "three") }).want(t, 1, 0, "b/c", "three", "two words", "GOLDEN_UPDATE=1")
	if got := read(); got != "a 1\nb/c two words\n" {
		t.Fatalf("a failing check rewrote the ledger:\n%s", got)
	}
}

func TestUpdateRewritesOnlyDifferingRows(t *testing.T) {
	read := ledger(t, "a 1\nc 3\ne 5\n")
	t.Setenv("GOLDEN_UPDATE", "1")
	pin(func(tb testing.TB) { Check(tb, "a", "1") }).want(t, 0, 0)
	pin(func(tb testing.TB) { Check(tb, "c", "4") }).want(t, 0, 1, "moved: c 3 → 4")
	pin(func(tb testing.TB) { Check(tb, "b", "2") }).want(t, 0, 1, "added: b", "2")
	if got, want := read(), "a 1\nb 2\nc 4\ne 5\n"; got != want {
		t.Fatalf("ledger after update:\n%s\nwant\n%s", got, want)
	}
}

func TestDuplicateOrUnsortedRowFails(t *testing.T) {
	for _, content := range []string{"a 1\na 1\n", "b 1\na 1\n", "a 1\nnovalue\n"} {
		read := ledger(t, content)
		t.Setenv("GOLDEN_UPDATE", "1")
		pin(func(tb testing.TB) { Check(tb, "a", "1") }).want(t, 1, 0, "golden.txt")
		if read() != content {
			t.Fatalf("ledger %q was rewritten", content)
		}
	}
}

func TestMultiLineValueRefused(t *testing.T) {
	read := ledger(t, "")
	t.Setenv("GOLDEN_UPDATE", "1")
	pin(func(tb testing.TB) { Check(tb, "a", "x\ny") }).want(t, 1, 0, "golden.File")
	pin(func(tb testing.TB) { Check(tb, "a b", "x") }).want(t, 1, 0, "one word")
	if got := read(); got != "" {
		t.Fatalf("a refused row reached the ledger: %q", got)
	}
}

func TestMissingRowFailsWithoutTheSwitch(t *testing.T) {
	read := ledger(t, "a 1\n")
	pin(func(tb testing.TB) { Check(tb, "b", "2") }).want(t, 1, 0, "b is 2", "GOLDEN_UPDATE=1")
	if got := read(); got != "a 1\n" {
		t.Fatalf("a missing row was added without the switch: %q", got)
	}
}

// TestFloatsRoundTrip records floats through the ledger and parses them
// back bit for bit, −0, the largest subnormal and the extremes included.
func TestFloatsRoundTrip(t *testing.T) {
	read := ledger(t, "")
	vals := []float64{0, math.Copysign(0, -1), 0.1, 1.0 / 3, 12.80768969529981, 76.443139550543677,
		math.Float64frombits(0x000fffffffffffff), math.SmallestNonzeroFloat64, math.MaxFloat64, -1e21, 1e-7}
	format := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	t.Setenv("GOLDEN_UPDATE", "1")
	for i, v := range vals {
		pin(func(tb testing.TB) { Check(tb, fmt.Sprintf("v%02d", i), format(v)) }).want(t, 0, 1, "added:")
	}
	t.Setenv("GOLDEN_UPDATE", "")
	for i, line := range strings.Split(strings.TrimSuffix(read(), "\n"), "\n") {
		got, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(vals[i]) {
			t.Errorf("row %q parses to %v (%v), want the bits of %v", line, got, err, vals[i])
		}
		pin(func(tb testing.TB) { Check(tb, fmt.Sprintf("v%02d", i), format(vals[i])) }).want(t, 0, 0)
	}
	pin(func(tb testing.TB) { Check(tb, "v00", format(math.Copysign(0, -1))) }).want(t, 1, 0, "-0", "want 0")
}

func TestFile(t *testing.T) {
	ledger(t, "")
	path := filepath.Join(dir, "out.txt")
	pin(func(tb testing.TB) { File(tb, "out.txt", []byte("x\n")) }).want(t, 1, 0, "out.txt is 2 bytes and not recorded")
	t.Setenv("GOLDEN_UPDATE", "1")
	pin(func(tb testing.TB) { File(tb, "out.txt", []byte("x\n")) }).want(t, 0, 1, "added: out.txt")
	pin(func(tb testing.TB) { File(tb, "out.txt", []byte("x\ny\n")) }).want(t, 0, 1, "moved: out.txt 2 bytes → 4 bytes")
	t.Setenv("GOLDEN_UPDATE", "")
	pin(func(tb testing.TB) { File(tb, "out.txt", []byte("x\ny\n")) }).want(t, 0, 0)
	pin(func(tb testing.TB) { File(tb, "out.txt", []byte("x\n")) }).want(t, 1, 0, "out.txt is 2 bytes, want 4 bytes")
	if data, err := os.ReadFile(path); err != nil || string(data) != "x\ny\n" {
		t.Fatalf("out.txt holds %q (%v)", data, err)
	}
}

// TestParallelUpdatesKeepEveryRow adds rows from parallel goroutines: each
// rewrite of the ledger holds the lock, so none loses another's row.
func TestParallelUpdatesKeepEveryRow(t *testing.T) {
	read := ledger(t, "")
	t.Setenv("GOLDEN_UPDATE", "1")
	recs := make([]*recorder, 8)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = pin(func(tb testing.TB) { Check(tb, fmt.Sprintf("r%d", i), "x") })
		}()
	}
	wg.Wait()
	for _, r := range recs {
		r.want(t, 0, 1, "added:")
	}
	if got, want := read(), "r0 x\nr1 x\nr2 x\nr3 x\nr4 x\nr5 x\nr6 x\nr7 x\n"; got != want {
		t.Fatalf("ledger after parallel updates:\n%s\nwant\n%s", got, want)
	}
}
