package lab

// Statistical machinery for repetition-aware comparisons and gates:
// deterministic percentile-bootstrap confidence intervals and a
// Mann-Whitney U rank test (normal approximation with tie correction).
// Both operate on per-run metric samples — one value per archived run,
// e.g. each run's median completion time — never on pooled node-level
// samples, so the unit of replication is the experiment, not the node.
//
// Everything here is deterministic: the bootstrap PRNG is a fixed-seed
// splitmix64 stream over the *sorted* sample set, so the same samples
// always produce the same interval regardless of archive enumeration
// order, and reports built from these results stay golden-testable.

import (
	"fmt"
	"math"
	"sort"

	"bulletprime/internal/trace"
)

// splitmix64 is the bootstrap's tiny deterministic PRNG; the same
// generator the compact clustered topology uses for hash-derived
// parameters. No global state, no time-derived seeding.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform draw from [0, n) by rejection, avoiding the
// modulo bias a plain % would introduce.
func (s *splitmix64) intn(n int) int {
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := s.next()
		if v < max {
			return int(v % uint64(n))
		}
	}
}

// bootstrapSeed fixes the resampling stream; part of the deterministic
// output contract, so changing it re-pins every golden stats report.
const bootstrapSeed = 0x6c61622d7374 // "lab-st"

// DefaultBootstrap is the resample count used when a StatsConfig leaves
// Bootstrap zero: enough for stable 95% percentile intervals on the
// small per-run sample sets gates see, cheap enough to run in tests.
const DefaultBootstrap = 2000

// CI is a two-sided confidence interval for a statistic.
type CI struct {
	Lo, Hi float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
}

func (ci CI) String() string {
	return fmt.Sprintf("[%.1f, %.1f]", ci.Lo, ci.Hi)
}

// median of an already-sorted slice.
func sortedMedian(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// BootstrapMedianCI computes a percentile-bootstrap confidence interval
// for the median of samples at the given level (e.g. 0.95), using iters
// resamples (<= 0 means DefaultBootstrap). The input is copied and
// sorted first, so sample order never changes the result. With fewer
// than two samples the interval degenerates to the sample itself.
func BootstrapMedianCI(samples []float64, level float64, iters int) CI {
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	if iters <= 0 {
		iters = DefaultBootstrap
	}
	n := len(samples)
	if n == 0 {
		return CI{Lo: math.NaN(), Hi: math.NaN(), Level: level}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n == 1 {
		return CI{Lo: sorted[0], Hi: sorted[0], Level: level}
	}
	rng := splitmix64(bootstrapSeed)
	stats := make([]float64, iters)
	resample := make([]float64, n)
	for i := 0; i < iters; i++ {
		for j := range resample {
			resample[j] = sorted[rng.intn(n)]
		}
		sort.Float64s(resample)
		stats[i] = sortedMedian(resample)
	}
	sort.Float64s(stats)
	alpha := float64((1 - level) / 2)
	lo := stats[int(alpha*float64(iters))]
	hiIdx := int((1 - alpha) * float64(iters))
	if hiIdx >= iters {
		hiIdx = iters - 1
	}
	return CI{Lo: lo, Hi: stats[hiIdx], Level: level}
}

// MWResult is a Mann-Whitney U test outcome comparing sample sets A and
// B on the hypothesis "B is stochastically greater than A" — for
// completion times, "B is slower".
type MWResult struct {
	// U is the Mann-Whitney statistic of side B.
	U float64
	// Z is the tie-corrected, continuity-corrected normal deviate.
	Z float64
	// POneSided is P(B > A): small when B's samples rank above A's.
	POneSided float64
	// PTwoSided is the two-sided p-value for "A and B differ".
	PTwoSided float64
	// NA, NB are the sample counts.
	NA, NB int
}

// MannWhitney runs the rank-sum test on two per-run sample sets using
// the normal approximation with average ranks for ties and a 0.5
// continuity correction. The approximation is conservative for the
// n >= 4 per side a repetition-aware gate requires; below that the
// p-values saturate toward 0.5 and nothing can be significant, which is
// the right failure mode for underpowered gates. Degenerate inputs
// (either side empty, or zero variance from total ties) report p = 1
// on both hypotheses — never significant, never NaN.
func MannWhitney(a, b []float64) MWResult {
	res := MWResult{NA: len(a), NB: len(b), POneSided: 1, PTwoSided: 1}
	if len(a) == 0 || len(b) == 0 {
		return res
	}
	type obs struct {
		v float64
		b bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, false})
	}
	for _, v := range b {
		all = append(all, obs{v, true})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	na, nb := float64(len(a)), float64(len(b))
	n := na + nb
	// Average ranks over tie groups; accumulate B's rank sum and the tie
	// correction term sum(t^3 - t).
	var rankB, tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		t := float64(j - i)
		avgRank := float64((float64(i+1) + float64(j)) / 2)
		for k := i; k < j; k++ {
			if all[k].b {
				rankB += avgRank
			}
		}
		tieTerm += float64(t*t*t) - t
		i = j
	}
	res.U = rankB - float64(nb*(nb+1)/2)
	mean := float64(na * nb / 2)
	variance := na * nb / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if variance <= 0 {
		// Every observation tied: no evidence of any shift.
		return res
	}
	// Continuity correction toward the mean.
	diff := res.U - mean
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	res.Z = diff / math.Sqrt(variance)
	// One-sided P(B > A): large U (B ranks high) gives a small p.
	res.POneSided = 0.5 * math.Erfc(res.Z/math.Sqrt2)
	z := math.Abs(res.Z)
	res.PTwoSided = math.Erfc(z / math.Sqrt2)
	if res.PTwoSided > 1 {
		res.PTwoSided = 1
	}
	return res
}

// PerRunMetric evaluates one metric value per run — the sample unit of
// every statistical comparison — returning the values sorted ascending.
// Runs without completions are skipped (they have no distribution to
// evaluate). Compose with MetricQuantile to sample any named metric.
func PerRunMetric(runs []*Run, eval func(*trace.CDF) float64) []float64 {
	var out []float64
	for _, r := range runs {
		c := r.CDF()
		if c.N() == 0 {
			continue
		}
		out = append(out, eval(c))
	}
	sort.Float64s(out)
	return out
}

// PerRunMedians is the common case: each run's median completion time,
// sorted ascending — the sample set gates and comparisons rank.
func PerRunMedians(runs []*Run) []float64 {
	return PerRunMetric(runs, func(c *trace.CDF) float64 { return c.Quantile(0.5) })
}

// renderCIBar draws one label's interval as an ASCII bar positioned on
// the shared [lo, hi] axis: dashes for the axis, '=' spanning the CI,
// '|' at the point estimate.
func renderCIBar(label string, point float64, ci CI, lo, hi float64, width int) string {
	if width < 8 {
		width = 8
	}
	span := hi - lo
	pos := func(v float64) int {
		if span <= 0 {
			return 0
		}
		p := int(math.Round((v - lo) / span * float64(width-1)))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	bar := make([]byte, width)
	for i := range bar {
		bar[i] = '-'
	}
	for i := pos(ci.Lo); i <= pos(ci.Hi); i++ {
		bar[i] = '='
	}
	bar[pos(point)] = '|'
	return fmt.Sprintf("%-16s %s  %.1f %s", label, bar, point, ci)
}
