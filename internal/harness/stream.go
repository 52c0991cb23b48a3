package harness

import (
	"bulletprime/internal/obs"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
	"bulletprime/internal/stream"
)

// StreamSpec turns a sweep cell into a live-streaming run: instead of
// distributing a fixed file as fast as possible, the source emits one block
// every BlockSize/BitrateBps seconds for Duration seconds, and every member
// is tracked as a viewer playing the stream behind the live edge
// (stream.Tracker). The run ends when every viewer holds the full stream or
// the drain window after the last emission expires, whichever comes first —
// not at SweepSpec.Deadline, which stays a hard upper bound.
type StreamSpec struct {
	// BitrateBps is the source emission rate in bytes per second.
	BitrateBps float64
	// Duration is how long the source emits, in virtual seconds.
	Duration float64
	// PlayoutDepth is the viewer buffer depth in seconds of content;
	// <= 0 picks defaultPlayoutDepth.
	PlayoutDepth float64
	// Warmup excludes the startup transient from steady-state goodput;
	// < 0 picks min(Duration/4, defaultWarmupCap). 0 means no warmup.
	Warmup float64
	// Drain is how long the run may continue past the last block's emission
	// so trailing viewers catch up; <= 0 picks defaultDrain.
	Drain float64
}

// Streaming defaults; see StreamSpec field docs.
const (
	defaultPlayoutDepth = 4.0
	defaultWarmupCap    = 10.0
	defaultDrain        = 15.0
)

// Normalized returns the spec with defaults applied, the one place they
// live; normalizing twice changes nothing. SweepSpec.Check refuses a rate
// or duration that cannot describe a stream.
func (sp StreamSpec) Normalized() StreamSpec {
	if sp.PlayoutDepth <= 0 {
		sp.PlayoutDepth = defaultPlayoutDepth
	}
	if sp.Warmup < 0 {
		sp.Warmup = sp.Duration / 4
		if sp.Warmup > defaultWarmupCap {
			sp.Warmup = defaultWarmupCap
		}
	}
	if sp.Drain <= 0 {
		sp.Drain = defaultDrain
	}
	return sp
}

// config converts the (normalized) spec to the tracker's model config.
func (sp StreamSpec) config(blockSize float64) stream.Config {
	return stream.Config{
		BitrateBps:   sp.BitrateBps,
		BlockSize:    blockSize,
		Duration:     sp.Duration,
		PlayoutDepth: sp.PlayoutDepth,
		Warmup:       sp.Warmup,
	}
}

// endTime is the natural end bound of a streaming run: emission plus drain,
// pushed out by the latest flash-crowd wave start when the scenario staggers
// sessions (each wave streams its own copy from its own start time).
func (sp StreamSpec) endTime(prog *scenario.Program) sim.Time {
	end := sp.Duration + sp.Drain
	if prog != nil {
		for _, w := range prog.Waves() {
			if t := w.At + sp.Duration + sp.Drain; t > end {
				end = t
			}
		}
	}
	return sim.Time(end)
}

// installStream builds the run's tracker on the rig: viewers join as the rig
// builds each session, the rig's block door feeds it every novel block
// arrival, annotations ride the rig's annotation hook, and rebuffer spans go
// to the tracer when there is one.
func installStream(rig *Rig, sp StreamSpec, blockSize float64, tracer *obs.Tracer) {
	tr := stream.NewTracker(sp.config(blockSize), func() float64 {
		return float64(rig.Eng.Now())
	})
	tr.Annotate = rig.Annotate
	if tracer != nil {
		tr.Trace = func(at float64, node int, kind, note string) {
			tracer.Record(at, kind, node, -1, note)
		}
	}
	rig.Stream = tr
}
