package main

import (
	"bytes"
	"testing"

	"bulletprime/internal/golden"
)

// TestOutput runs the example and compares what it prints with
// testdata/output.txt byte for byte: every number it prints is a pure
// function of its seeds.
func TestOutput(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	golden.File(t, "output.txt", out.Bytes())
}
