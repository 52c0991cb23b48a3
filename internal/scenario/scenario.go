// Package scenario is a declarative, trace-driven scenario engine for the
// emulator's network dynamics, churn, and flash crowds.
//
// A Scenario is data: a list of Events (link dynamics, trace replay,
// stochastic outages, churn, flash-crowd waves) described either through the
// Go builder helpers in this file or as a JSON document (LoadFile). Compile
// validates a scenario against an overlay size and produces an immutable
// Program; the harness binds a Program to one experiment rig through the Env
// interface, which schedules every mutation on the rig's simulation engine
// and draws every random choice from the rig's seeded RNG streams. The same
// seed and the same scenario therefore always produce a bit-identical run —
// the property the parallel sweep driver depends on.
//
// The paper's two hardcoded dynamics schedules (§4.1 synthetic bandwidth
// halving, Figure 12 cascade) are expressible as scenario programs; the
// harness re-exports them that way and tests equivalence bit-for-bit.
package scenario

import (
	"fmt"
	"math"
)

// Event kinds.
const (
	// KindSetBW sets the selected links to an absolute bandwidth, once at
	// At or repeatedly every Period.
	KindSetBW = "set_bw"
	// KindScaleBW multiplies the selected links' current bandwidth by
	// Factor (cumulative across repetitions), bounded below by Floor ×
	// original bandwidth when Floor > 0.
	KindScaleBW = "scale_bw"
	// KindDegrade is the paper's §4.1 process: every Period, VictimFrac of
	// the members are chosen; for each victim, SourceFrac of the other
	// members have their core link toward the victim scaled by Factor,
	// cumulatively, bounded below by Floor × original bandwidth.
	KindDegrade = "degrade"
	// KindTrace replays a piecewise-constant bandwidth time series onto the
	// selected links, optionally looped and time-stretched.
	KindTrace = "trace"
	// KindOutage is a Gilbert-Elliott-style up/down process on the selected
	// links (one shared fault domain): up and down residence times are
	// exponential; while down the links run at DownKbps.
	KindOutage = "outage"
	// KindChurn crashes a sampled fraction of the (non-source) members at
	// times drawn from a session-lifetime distribution.
	KindChurn = "churn"
	// KindFail crashes the explicitly listed nodes at time At.
	KindFail = "fail"
	// KindFlashCrowd staggers the overlay into session-start waves; wave
	// membership and timing are read by the harness, which builds one
	// dissemination session per wave over the shared emulated network.
	KindFlashCrowd = "flashcrowd"
)

// Scenario is one declarative experiment schedule.
type Scenario struct {
	Name   string  `json:"name"`
	Notes  string  `json:"notes,omitempty"`
	Events []Event `json:"events"`
}

// Event is one scenario item. Kind selects the primitive; the remaining
// fields are kind-specific (see the Kind* constants). Bandwidths are in Kbps
// in the JSON form; times and durations are virtual seconds.
type Event struct {
	Kind string `json:"kind"`

	// At is the event's start time; Period > 0 makes set_bw/scale_bw
	// repeat (Count repetitions, 0 = unbounded). Degrade fires first at
	// At+Period, like the paper's schedule.
	At     float64 `json:"at,omitempty"`
	Period float64 `json:"period,omitempty"`
	Count  int     `json:"count,omitempty"`

	// Links selects the target links for set_bw/scale_bw/trace/outage.
	Links *LinkSet `json:"links,omitempty"`

	// BWKbps is the absolute bandwidth for set_bw.
	BWKbps float64 `json:"bw_kbps,omitempty"`
	// Factor and Floor drive scale_bw and degrade.
	Factor float64 `json:"factor,omitempty"`
	Floor  float64 `json:"floor,omitempty"`
	// VictimFrac and SourceFrac parameterize degrade (default 0.5 each).
	VictimFrac float64 `json:"victim_frac,omitempty"`
	SourceFrac float64 `json:"source_frac,omitempty"`

	// Trace replay: an inline trace or a file reference (resolved relative
	// to the scenario file by LoadFile), with loop/stretch/scale shaping.
	// Mode "set" (default) treats trace values as absolute Kbps; "scale"
	// treats them as multipliers on the links' original bandwidth.
	TraceFile string  `json:"trace_file,omitempty"`
	Trace     *Trace  `json:"trace,omitempty"`
	Loop      bool    `json:"loop,omitempty"`
	Stretch   float64 `json:"stretch,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	Mode      string  `json:"mode,omitempty"`

	// Outage parameters: mean up/down residence times and the degraded
	// bandwidth (default 8 Kbps — nearly, but not exactly, dead).
	MeanUp   float64 `json:"mean_up,omitempty"`
	MeanDown float64 `json:"mean_down,omitempty"`
	DownKbps float64 `json:"down_kbps,omitempty"`

	// Churn: Frac of the non-source members crash, each after a lifetime
	// drawn from Lifetime, measured from At.
	Frac     float64 `json:"frac,omitempty"`
	Lifetime *Dist   `json:"lifetime,omitempty"`

	// Fail: explicit node ids crashed at At.
	Nodes []int `json:"nodes,omitempty"`

	// FlashCrowd waves.
	Waves []Wave `json:"waves,omitempty"`

	// Stream overrides the RNG substream name for stochastic events. The
	// defaults ("dynamics", "outage", "churn", "links") keep distinct
	// primitives on independent streams; two events of the same kind that
	// must not share draws should set distinct names.
	Stream string `json:"stream,omitempty"`
}

// LinkSet selects a set of links. Exactly one of Pairs, Nodes, Frac, or All
// must be used. Nodes/Frac/All select core links touching the chosen nodes
// according to Dir ("in", "out", or "both"; default "both") — or, when
// Access is set ("in", "out", "both"), the chosen nodes' access links
// instead.
type LinkSet struct {
	Pairs  [][2]int `json:"pairs,omitempty"`
	Nodes  []int    `json:"nodes,omitempty"`
	Dir    string   `json:"dir,omitempty"`
	Access string   `json:"access,omitempty"`
	Frac   float64  `json:"frac,omitempty"`
	All    bool     `json:"all,omitempty"`
}

// Dist is a session-lifetime distribution.
type Dist struct {
	// Kind is "exp" (Mean) or "pareto" (Alpha shape, Min scale).
	Kind  string  `json:"dist"`
	Mean  float64 `json:"mean,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	Min   float64 `json:"min,omitempty"`
}

// Sample draws one lifetime from the distribution: "pareto", or else "exp",
// the only other kind Compile accepts. Inverse-CDF sampling keeps the draw a
// single Float64 call, so a scenario's stream consumption is easy to reason
// about.
func (d *Dist) Sample(rng interface{ Float64() float64 }) float64 {
	u := rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	if d.Kind == "pareto" {
		return d.Min * math.Pow(1-u, -1/d.Alpha)
	}
	return -d.Mean * math.Log(1-u)
}

func (d *Dist) validate() error {
	switch d.Kind {
	case "exp":
		if d.Mean <= 0 {
			return fmt.Errorf("exp lifetime needs mean > 0, got %v", d.Mean)
		}
	case "pareto":
		if d.Alpha <= 0 || d.Min <= 0 {
			return fmt.Errorf("pareto lifetime needs alpha > 0 and min > 0, got alpha=%v min=%v", d.Alpha, d.Min)
		}
	default:
		return fmt.Errorf("unknown lifetime distribution %q (want exp or pareto)", d.Kind)
	}
	return nil
}

func (d *Dist) String() string {
	switch d.Kind {
	case "exp":
		return fmt.Sprintf("Exp(mean %.3gs)", d.Mean)
	case "pareto":
		return fmt.Sprintf("Pareto(alpha %.3g, min %.3gs)", d.Alpha, d.Min)
	}
	return d.Kind
}

// Wave is one flash-crowd session wave: a cohort of nodes whose session
// starts at At. Frac carves the cohort out of the not-yet-assigned members
// (the last wave takes the remainder); Nodes lists it explicitly.
type Wave struct {
	At    float64 `json:"at"`
	Frac  float64 `json:"frac,omitempty"`
	Nodes []int   `json:"nodes,omitempty"`
}

// New assembles a scenario from builder events.
func New(name string, events ...Event) *Scenario {
	return &Scenario{Name: name, Events: events}
}

// kbps converts bytes/second (the emulator's unit) to the Kbps used in the
// declarative form.
func kbps(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e3 }

// SetBW sets the selected links to bw (bytes/second) at time at.
func SetBW(at float64, links LinkSet, bw float64) Event {
	return Event{Kind: KindSetBW, At: at, Links: &links, BWKbps: kbps(bw)}
}

// ScaleBW multiplies the selected links' bandwidth by factor at time at; a
// period makes it repeat (cumulatively).
func ScaleBW(at float64, links LinkSet, factor float64) Event {
	return Event{Kind: KindScaleBW, At: at, Links: &links, Factor: factor}
}

// Degrade is the §4.1 synthetic bandwidth-change process: every period,
// victimFrac of the members are chosen, and for each victim sourceFrac of
// the other members have their core link toward the victim scaled by factor
// (cumulative), bounded below by floor × original bandwidth.
func Degrade(period, victimFrac, sourceFrac, factor, floor float64) Event {
	return Event{Kind: KindDegrade, Period: period, VictimFrac: victimFrac,
		SourceFrac: sourceFrac, Factor: factor, Floor: floor}
}

// TraceReplay replays tr onto the selected links starting at time at.
func TraceReplay(at float64, links LinkSet, tr *Trace, loop bool) Event {
	return Event{Kind: KindTrace, At: at, Links: &links, Trace: tr, Loop: loop}
}

// Outage runs a Gilbert-Elliott up/down process on the selected links from
// time at: exponential residence times with the given means, downBW
// (bytes/second) while down.
func Outage(at float64, links LinkSet, meanUp, meanDown, downBW float64) Event {
	return Event{Kind: KindOutage, At: at, Links: &links, MeanUp: meanUp,
		MeanDown: meanDown, DownKbps: kbps(downBW)}
}

// Churn crashes frac of the non-source members, each after a lifetime drawn
// from d, measured from time at.
func Churn(at, frac float64, d Dist) Event {
	return Event{Kind: KindChurn, At: at, Frac: frac, Lifetime: &d}
}

// Fail crashes the listed nodes at time at.
func Fail(at float64, nodes ...int) Event {
	return Event{Kind: KindFail, At: at, Nodes: nodes}
}

// FlashCrowd staggers the overlay into session-start waves.
func FlashCrowd(waves ...Wave) Event {
	return Event{Kind: KindFlashCrowd, Waves: waves}
}

func (ls *LinkSet) validate(n int) error {
	selectors := 0
	if len(ls.Pairs) > 0 {
		selectors++
	}
	if len(ls.Nodes) > 0 {
		selectors++
	}
	if ls.Frac > 0 {
		selectors++
	}
	if ls.All {
		selectors++
	}
	if selectors != 1 {
		return fmt.Errorf("links need exactly one of pairs, nodes, frac, all (got %d)", selectors)
	}
	for _, p := range ls.Pairs {
		if p[0] == p[1] {
			return fmt.Errorf("link pair (%d,%d) has equal endpoints", p[0], p[1])
		}
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return fmt.Errorf("link pair (%d,%d) out of range for %d nodes", p[0], p[1], n)
		}
	}
	for _, v := range ls.Nodes {
		if v < 0 || v >= n {
			return fmt.Errorf("node %d out of range for %d nodes", v, n)
		}
	}
	if ls.Frac < 0 || ls.Frac > 1 {
		return fmt.Errorf("links frac %v outside [0,1]", ls.Frac)
	}
	switch ls.Dir {
	case "", "in", "out", "both":
	default:
		return fmt.Errorf("links dir %q (want in, out, or both)", ls.Dir)
	}
	switch ls.Access {
	case "", "in", "out", "both":
	default:
		return fmt.Errorf("links access %q (want in, out, or both)", ls.Access)
	}
	if ls.Access != "" && len(ls.Pairs) > 0 {
		return fmt.Errorf("links access selection requires nodes, frac, or all — not pairs")
	}
	return nil
}

// String renders a compact human description for the lint timeline.
func (ls *LinkSet) String() string {
	target := "core links"
	if ls.Access != "" {
		target = "access-" + ls.Access + " links"
	}
	switch {
	case len(ls.Pairs) > 0:
		return fmt.Sprintf("%d explicit core links", len(ls.Pairs))
	case len(ls.Nodes) > 0:
		dir := ls.Dir
		if dir == "" {
			dir = "both"
		}
		if ls.Access != "" {
			return fmt.Sprintf("%s of %d nodes", target, len(ls.Nodes))
		}
		return fmt.Sprintf("core links (%s) of %d nodes", dir, len(ls.Nodes))
	case ls.Frac > 0:
		if ls.Access != "" {
			return fmt.Sprintf("%s of a sampled %.0f%% of members", target, ls.Frac*100)
		}
		return fmt.Sprintf("core links of a sampled %.0f%% of members", ls.Frac*100)
	default:
		if ls.Access != "" {
			return target + " of all members"
		}
		return "all core links"
	}
}
