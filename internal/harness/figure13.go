package harness

import (
	"fmt"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// Figure 13 and §4.6's last-block question: the one figure whose curve is
// not a completion CDF, and the one with an analysis of its own.

// interArrivals is Figure 13's one run: an unencoded Bullet' download
// watched through the block hook, drawn as the mean gap before each
// receiver's k-th block arrival.
func interArrivals(sc Scale, seed int64) []figSeries {
	s := modelNet(sc, seed)
	s.Label = "Average"
	// sum[k]/cnt[k] accumulate the k-th inter-arrival gap across receivers.
	n := s.Workload.NumBlocks()
	sum, cnt := make([]float64, n), make([]int, n)
	last := make(map[netem.NodeID]sim.Time)
	var rig *Rig
	s.Hooks = &Hooks{
		OnStart: func(r *Rig, _ System) { rig = r },
		OnBlock: func(id netem.NodeID, _, held int) {
			now := rig.Eng.Now()
			if k := held - 1; k > 0 && k < n {
				sum[k] += float64(now - last[id])
				cnt[k]++
			}
			last[id] = now
		},
	}
	return []figSeries{{spec: s, curves: func(*RunResult) []trace.Series {
		avg := trace.Series{Label: s.Label}
		for k := 1; k < n; k++ {
			if cnt[k] > 0 {
				avg.Points = append(avg.Points, [2]float64{float64(k), sum[k] / float64(cnt[k])})
			}
		}
		return []trace.Series{avg}
	}}}
}

// Figure13Result carries the last-block analysis of §4.6 alongside the
// inter-arrival curve.
type Figure13Result struct {
	Fig *trace.Figure
	// AvgInterArrival is the overall mean block inter-arrival time tb.
	AvgInterArrival float64
	// LastBlocksOverage is the cumulative overage of the last 20 blocks'
	// mean inter-arrival above tb (the "last-block problem" cost).
	LastBlocksOverage float64
	// EncodingCost is the download-time increase a fixed 4% source-coding
	// overhead would impose (the alternative being weighed).
	EncodingCost float64
}

// Figure13 measures average block inter-arrival times across receivers for
// an unencoded Bullet' run and quantifies whether source encoding would
// pay for itself.
func Figure13(sc Scale, seed int64) *Figure13Result {
	fig, _ := RunFigure(13, sc, seed) // the row exists and its spec passes Check
	return lastBlockAnalysis(fig, sc)
}

// lastBlockAnalysis weighs the inter-arrival curve's slow tail against the
// cost of source encoding.
func lastBlockAnalysis(fig *trace.Figure, sc Scale) *Figure13Result {
	res := &Figure13Result{Fig: fig}
	points := fig.Series[0].Points
	if len(points) == 0 {
		return res
	}
	var all float64
	for _, p := range points {
		all += p[1]
	}
	tb := all / float64(len(points))
	res.AvgInterArrival = tb
	for _, p := range points[max(0, len(points)-20):] {
		if over := p[1] - tb; over > 0 {
			res.LastBlocksOverage += over
		}
	}
	// 4% more blocks at the average pace tb per block.
	res.EncodingCost = 0.04 * float64(modelNet(sc, 0).Workload.NumBlocks()) * tb
	return res
}

// lastBlockNote is the analysis as Render appends it to the figure.
func lastBlockNote(fig *trace.Figure, sc Scale) string {
	r := lastBlockAnalysis(fig, sc)
	return fmt.Sprintf(
		"\n# avg inter-arrival tb = %.3fs\n# last-20-block overage = %.2fs\n# 4%% encoding cost     = %.2fs\n# encoding clearly beneficial: %v\n",
		r.AvgInterArrival, r.LastBlocksOverage, r.EncodingCost,
		r.LastBlocksOverage > r.EncodingCost*1.5)
}
