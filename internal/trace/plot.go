package trace

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
)

// plotGlyphs distinguish series in ASCII plots.
var plotGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// AsciiPlot renders the figure as a width x height terminal chart with one
// glyph per series and a legend — a gnuplot stand-in for quick inspection
// of reproduced figures.
func (f *Figure) AsciiPlot(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	// Bounds across all series.
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			xMin = math.Min(xMin, p[0])
			xMax = math.Max(xMax, p[0])
			yMin = math.Min(yMin, p[1])
			yMax = math.Max(yMax, p[1])
		}
	}
	if math.IsInf(xMin, 1) {
		return "(no data)\n"
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = bytes.Repeat([]byte{' '}, width)
	}
	for si, s := range f.Series {
		g := plotGlyphs[si%len(plotGlyphs)]
		for _, p := range s.Points {
			cx := int((p[0] - xMin) / (xMax - xMin) * float64(width-1))
			cy := int((p[1] - yMin) / (yMax - yMin) * float64(height-1))
			row := height - 1 - cy
			if row >= 0 && row < height && cx >= 0 && cx < width {
				grid[row][cx] = g
			}
		}
	}

	var b strings.Builder
	if f.Title != "" {
		fmt.Fprintf(&b, "%s\n", f.Title)
	}
	for i, row := range grid {
		yVal := yMax - (yMax-yMin)*float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%8.2f |%s|\n", yVal, string(row))
	}
	fmt.Fprintf(&b, "%8s +%s+\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  %-*.1f%*.1f\n", "", width/2, xMin, width-width/2, xMax)
	if f.XLabel != "" || f.YLabel != "" {
		fmt.Fprintf(&b, "%8s  x: %s, y: %s\n", "", f.XLabel, f.YLabel)
	}
	// Legend, stable order.
	labels := make([]string, 0, len(f.Series))
	for si, s := range f.Series {
		labels = append(labels, fmt.Sprintf("  %c %s", plotGlyphs[si%len(plotGlyphs)], s.Label))
	}
	sort.Strings(labels[1:]) // keep the first series first; rest sorted for stability
	for _, l := range labels {
		fmt.Fprintf(&b, "%s\n", l)
	}
	return b.String()
}
