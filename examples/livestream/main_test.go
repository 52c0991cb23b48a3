package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.txt from this run")

// TestOutput runs the example and compares what it prints with
// testdata/output.txt byte for byte: every number it prints is a pure
// function of its seeds.
func TestOutput(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	const golden = "testdata/output.txt"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s (go test -update rewrites it):\n%s", golden, out.String())
	}
}
