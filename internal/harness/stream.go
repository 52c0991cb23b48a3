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
// not at SweepSpec.Deadline, which stays a hard upper bound. It is
// stream.Options, the one declaration of a stream's settings and their
// defaults; the façade's StreamOptions is the same type.
type StreamSpec = stream.Options

// streamEnd is the natural end bound of a streaming run: emission plus
// drain, pushed out by the latest flash-crowd wave start when the scenario
// staggers sessions (each wave streams its own copy from its own start time).
func streamEnd(sp StreamSpec, prog *scenario.Program) sim.Time {
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
	tr := stream.NewTracker(stream.Config{Options: sp, BlockSize: blockSize}, func() float64 {
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
