// Package trace provides the measurement utilities shared by the emulator,
// the protocols, and the experiment harness: rate meters, streaming
// statistics, CDFs, and labelled series that render in the same form as the
// paper's figures.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"bulletprime/internal/sim"
)

// RateMeter measures the byte rate of a stream over sliding windows of
// virtual time using fixed-width buckets. Protocols use it for the
// "bandwidth received since the last RanSub distribute" measurements that
// drive Bullet' peering decisions.
type RateMeter struct {
	bucketW float64
	slots   []meterSlot
	total   float64
}

// meterSlot is one bucket of a RateMeter: the bytes recorded in it and the
// bucket index it currently holds.
type meterSlot struct {
	bytes float64
	at    int64
}

// NewRateMeter creates a meter with the given bucket width in seconds; the
// meter can answer rate queries for windows up to width*slots seconds.
func NewRateMeter(bucketWidth float64, slots int) *RateMeter {
	if slots < 2 {
		slots = 2
	}
	return &RateMeter{bucketW: bucketWidth, slots: make([]meterSlot, slots)}
}

func (m *RateMeter) slot(t sim.Time) (int, int64) {
	bi := int64(float64(t) / m.bucketW)
	return int(bi % int64(len(m.slots))), bi
}

// Add records n bytes at virtual time t.
func (m *RateMeter) Add(t sim.Time, n float64) {
	i, bi := m.slot(t)
	s := &m.slots[i]
	if s.at != bi {
		*s = meterSlot{at: bi}
	}
	s.bytes += n
	m.total += n
}

// Reset forgets everything recorded, keeping the slots for reuse: the meter
// then reads as a new one of its width and slot count does.
func (m *RateMeter) Reset() { clear(m.slots); m.total = 0 }

// Total returns all bytes ever recorded.
func (m *RateMeter) Total() float64 { return m.total }

// Rate returns the average byte rate over the last window seconds ending at
// time t. Windows longer than the meter's span are clamped.
func (m *RateMeter) Rate(t sim.Time, window float64) float64 {
	if window <= 0 {
		return 0
	}
	maxW := m.bucketW * float64(len(m.slots)-1)
	if window > maxW {
		window = maxW
	}
	_, cur := m.slot(t)
	nb := int64(math.Ceil(window / m.bucketW))
	var sum float64
	for i := int64(0); i < nb; i++ {
		bi := cur - i
		if bi < 0 {
			break
		}
		if s := m.slots[bi%int64(len(m.slots))]; s.at == bi {
			sum += s.bytes
		}
	}
	return sum / window
}

// Stats accumulates streaming mean/variance/min/max (Welford's algorithm).
type Stats struct {
	N        int
	mean, m2 float64
	Min, Max float64
}

// Add records one sample.
func (s *Stats) Add(x float64) {
	if s.N == 0 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.N++
	d := x - s.mean
	s.mean += d / float64(s.N)
	s.m2 += float64(d * (x - s.mean))
}

// Mean returns the sample mean (0 when empty).
func (s *Stats) Mean() float64 { return s.mean }

// Var returns the population variance.
func (s *Stats) Var() float64 {
	if s.N == 0 {
		return 0
	}
	return s.m2 / float64(s.N)
}

// Std returns the population standard deviation.
func (s *Stats) Std() float64 { return math.Sqrt(s.Var()) }

// CDF is a collection of samples queried by quantile, rendered as the
// "percentage of nodes vs download time" curves of the paper.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

// Merge folds every sample of other into c, for aggregating per-rig CDFs
// after a sweep. Neither CDF may be mutated concurrently.
func (c *CDF) Merge(other *CDF) {
	if other == nil || len(other.samples) == 0 {
		return
	}
	c.samples = append(c.samples, other.samples...)
	c.sorted = false
}

// MarshalJSON encodes the CDF as a bare JSON array of its samples in
// insertion order (never null, so an empty CDF decodes back to an empty
// CDF). Go's float64 encoding is shortest-round-trip, so persisting a CDF
// through JSON — as the experiment archive does — preserves every sample
// bit-for-bit.
func (c *CDF) MarshalJSON() ([]byte, error) {
	if c.samples == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(c.samples)
}

// UnmarshalJSON decodes a sample array produced by MarshalJSON.
func (c *CDF) UnmarshalJSON(data []byte) error {
	var samples []float64
	if err := json.Unmarshal(data, &samples); err != nil {
		return fmt.Errorf("trace: decoding CDF: %w", err)
	}
	c.samples = samples
	c.sorted = false
	return nil
}

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by nearest-rank.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	i := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.samples) {
		i = len(c.samples) - 1
	}
	return c.samples[i]
}

// Median returns the 50th percentile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Worst returns the maximum sample (the paper's "slowest node").
func (c *CDF) Worst() float64 { return c.Quantile(1.0) }

// Best returns the minimum sample. (Under the nearest-rank rule
// Quantile(q) hits index ceil(q·n)-1, so every q in (0, 1/n] — and the
// clamped q=0 — selects the first sorted sample; an earlier definition
// spelled this Quantile(1/n), which is the same value by that identity,
// pinned in TestCDFBestIsMinimum.)
func (c *CDF) Best() float64 { return c.Quantile(0) }

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range c.samples {
		s += x
	}
	return s / float64(len(c.samples))
}

// Points returns (x, fraction<=x) pairs for every sample, the exact staircase
// the paper's figures plot.
func (c *CDF) Points() [][2]float64 {
	c.sort()
	out := make([][2]float64, len(c.samples))
	for i, x := range c.samples {
		out[i] = [2]float64{x, float64(i+1) / float64(len(c.samples))}
	}
	return out
}

// Series is a labelled curve: one line of a paper figure.
type Series struct {
	Label  string
	Points [][2]float64
}

// FromCDF converts a CDF to a plottable series.
func FromCDF(label string, c *CDF) Series {
	return Series{Label: label, Points: c.Points()}
}

// Figure is a set of series plus axis labels, rendered as gnuplot-style
// text: the repository's analogue of a paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render writes the figure as aligned text blocks, one per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# x: %s, y: %s\n", f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "\n## series: %s\n", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%12.3f %8.4f\n", p[0], p[1])
		}
	}
	return b.String()
}

// Summary renders one row per series with the quantiles the paper quotes in
// prose (median, 90th percentile, worst), assuming CDF-style series where x
// is download time.
func (f *Figure) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %10s %10s %10s %10s\n", f.Title, "best", "median", "p90", "worst")
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			fmt.Fprintf(&b, "%-42s %10s %10s %10s %10s\n", s.Label, "-", "-", "-", "-")
			continue
		}
		q := func(frac float64) float64 {
			i := int(math.Ceil(frac*float64(len(s.Points)))) - 1
			if i < 0 {
				i = 0
			}
			if i >= len(s.Points) {
				i = len(s.Points) - 1
			}
			return s.Points[i][0]
		}
		fmt.Fprintf(&b, "%-42s %10.1f %10.1f %10.1f %10.1f\n",
			s.Label, s.Points[0][0], q(0.5), q(0.9), s.Points[len(s.Points)-1][0])
	}
	return b.String()
}
