package trace

import (
	"strings"
	"testing"
)

func sampleFigure() *Figure {
	var a, b CDF
	for i := 1; i <= 20; i++ {
		a.Add(float64(i))
		b.Add(float64(i * 2))
	}
	return &Figure{
		Title:  "sample",
		XLabel: "time",
		YLabel: "fraction",
		Series: []Series{FromCDF("fast", &a), FromCDF("slow", &b)},
	}
}

func TestAsciiPlotContainsSeriesAndAxes(t *testing.T) {
	out := sampleFigure().AsciiPlot(60, 15)
	for _, want := range []string{"sample", "fast", "slow", "x: time", "*", "o", "|"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 18 {
		t.Fatalf("plot has %d lines, want >= 18", len(lines))
	}
}

func TestAsciiPlotDegenerate(t *testing.T) {
	fig := &Figure{Series: []Series{{Label: "empty"}}}
	if out := fig.AsciiPlot(40, 10); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot output: %q", out)
	}
	// Single point: bounds must not divide by zero.
	one := &Figure{Series: []Series{{Label: "one", Points: [][2]float64{{5, 0.5}}}}}
	if out := one.AsciiPlot(40, 10); !strings.Contains(out, "*") {
		t.Fatal("single point not plotted")
	}
}

func TestAsciiPlotMinimumDimensions(t *testing.T) {
	out := sampleFigure().AsciiPlot(1, 1) // clamped internally
	if len(out) == 0 {
		t.Fatal("no output at clamped dimensions")
	}
}
