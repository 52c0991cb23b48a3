package harness

import (
	"bulletprime/internal/netem"
	"bulletprime/internal/scenario"
)

// DegradationFloor bounds cumulative bandwidth halving at 1/64 of a link's
// original capacity (six halvings). The paper applies its changes only for
// the duration of its runs; an open-ended reproduction that halves forever
// drives every link to zero and no non-adaptive system could ever finish —
// contradicting the paper's own BitTorrent/SplitStream completion curves.
// The floor keeps the dynamics severe (links fall to ~31 Kbps on the 2 Mbps
// core) while leaving the experiment solvable. Documented in DESIGN.md.
const DegradationFloor = 1.0 / 64

// SyntheticBandwidthChanges is the §4.1 bandwidth-change process as a
// one-event scenario (SweepSpec.Dynamics): every period, 50% of the overlay
// participants are chosen uniformly at random; for each, 50% of the *other*
// participants have the core links from themselves toward the chosen node
// halved — without touching the reverse direction. Changes are cumulative
// (an unlucky pair sits at 25% of original bandwidth after two rounds),
// bounded below by DegradationFloor. It draws from the master RNG's
// "dynamics" stream, exactly like the closure it replaced, so runs are
// bit-identical.
func SyntheticBandwidthChanges(period float64) *scenario.Scenario {
	return scenario.New("synthetic-bandwidth-changes",
		scenario.Degrade(period, 0.5, 0.5, 0.5, DegradationFloor))
}

// CascadeDynamics is the Figure 12 cascade as a scenario (SweepSpec.Dynamics
// on CascadeTopology): every interval (25 s in the paper), one more of the
// 8th node's six inbound 5 Mbps links collapses to 100 Kbps, cumulatively,
// until all six are degraded.
func CascadeDynamics(interval float64) *scenario.Scenario {
	s := scenario.New("figure12-cascade")
	for k := 1; k <= 6; k++ {
		s.Events = append(s.Events, scenario.SetBW(float64(k)*interval,
			scenario.LinkSet{Pairs: [][2]int{{k, 7}}}, netem.Kbps(100)))
	}
	return s
}
