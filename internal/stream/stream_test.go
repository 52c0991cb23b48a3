package stream

import (
	"math"
	"testing"

	"bulletprime/internal/netem"
)

func cfg() Config {
	// 16 KB blocks at 32 KB/s: one block every 0.5 s, 20 s of content.
	return Config{Options: Options{BitrateBps: 32 * 1024, Duration: 20, PlayoutDepth: 2}, BlockSize: 16 * 1024}
}

type clock struct{ t float64 }

func (c *clock) now() float64 { return c.t }

func TestConfigGeometry(t *testing.T) {
	c := cfg()
	if got := c.Interval(); got != 0.5 {
		t.Fatalf("Interval = %v, want 0.5", got)
	}
	if got := c.Blocks(); got != 40 {
		t.Fatalf("Blocks = %v, want 40", got)
	}
	if got := c.ContentSeconds(); got != 20 {
		t.Fatalf("ContentSeconds = %v, want 20", got)
	}
	if got := c.LiveEdge(0); got != 0.5 {
		t.Fatalf("LiveEdge(0) = %v, want 0.5 (block 0 out at t=0)", got)
	}
	if got := c.LiveEdge(5.25); got != 5.5 {
		t.Fatalf("LiveEdge(5.25) = %v, want 5.5", got)
	}
	if got := c.LiveEdge(1e9); got != 20.0 {
		t.Fatalf("LiveEdge caps at content end, got %v", got)
	}
	if got := c.LiveEdge(-1); got != 0.0 {
		t.Fatalf("LiveEdge(-1) = %v, want 0", got)
	}
}

// A receiver fed exactly at the live edge starts after PlayoutDepth of
// content is buffered and never rebuffers.
func TestTrackerSmoothPlayback(t *testing.T) {
	ck := &clock{}
	tr := NewTracker(cfg(), ck.now)
	tr.Join(1, 0)
	c := tr.Config()
	for i := 0; i < c.Blocks(); i++ {
		ck.t = float64(i) * c.Interval()
		tr.OnBlock(1, i, i+1)
	}
	end := c.Duration + 1
	rep := tr.Report(end)
	if rep.Live != 1 || rep.Dead != 0 {
		t.Fatalf("live/dead = %d/%d", rep.Live, rep.Dead)
	}
	n := rep.Nodes[0]
	if n.Rebuffers != 0 {
		t.Fatalf("smooth feed rebuffered %d times", n.Rebuffers)
	}
	// Playback started once 2 s (4 blocks) were buffered, i.e. at the
	// arrival of block 3 (t=1.5).
	if math.Abs(n.StartupS-1.5) > 1e-9 {
		t.Fatalf("StartupS = %v, want 1.5", n.StartupS)
	}
	if n.Blocks != c.Blocks() {
		t.Fatalf("Blocks = %d, want %d", n.Blocks, c.Blocks())
	}
	// Steady lag: playhead trails the live edge by the startup delay.
	if n.LagS <= 0 || n.LagS > c.PlayoutDepth+1 {
		t.Fatalf("final lag %v outside (0, %v]", n.LagS, c.PlayoutDepth+1)
	}
	if n.JitterS > 1e-9 {
		t.Fatalf("perfectly paced arrivals should have ~0 jitter, got %v", n.JitterS)
	}
	if n.GoodputBps < 0.9*c.BitrateBps {
		t.Fatalf("goodput %v below target %v", n.GoodputBps, c.BitrateBps)
	}
}

// A feed that pauses mid-stream stalls playback (rebuffer event), resumes
// once the playout depth refills, and accounts the stall time exactly.
func TestTrackerRebuffer(t *testing.T) {
	ck := &clock{}
	tr := NewTracker(cfg(), ck.now)
	tr.Join(1, 0)
	c := tr.Config()
	iv := c.Interval()
	// Blocks 0..9 on time; playback starts at t=1.5 with playhead 0.
	for i := 0; i < 10; i++ {
		ck.t = float64(i) * iv
		tr.OnBlock(1, i, i+1)
	}
	// Stall: nothing arrives until t=20. At t=4.5 the buffer holds
	// blocks 0..9 (5 s) with the playhead at 3.0 → dry at t=6.5.
	ck.t = 20
	tr.OnBlock(1, 10, 11)
	st := tr.Sample(20)
	if st.RebufferEvents != 1 {
		t.Fatalf("RebufferEvents = %d, want 1", st.RebufferEvents)
	}
	if st.Rebuffering != 1 {
		t.Fatalf("receiver should still be stalled (only 0.5 s buffered), Rebuffering = %d", st.Rebuffering)
	}
	// Refill 2 s of content quickly → resume.
	for i := 11; i < 14; i++ {
		ck.t = 20 + 0.01*float64(i-10)
		tr.OnBlock(1, i, i+1)
	}
	rep := tr.Report(21)
	n := rep.Nodes[0]
	if n.Rebuffers != 1 {
		t.Fatalf("Rebuffers = %d, want 1", n.Rebuffers)
	}
	// Stalled from t=6.5 (buffer dry) to t=20.03 (2 s buffered again).
	if math.Abs(n.StallS-(20.03-6.5)) > 1e-6 {
		t.Fatalf("StallS = %v, want %v", n.StallS, 20.03-6.5)
	}
	if n.PeakLagS < 10 {
		t.Fatalf("peak lag should reflect the 12.5 s outage, got %v", n.PeakLagS)
	}
}

// Sampling between events must not change the trajectory: the playout
// state machine only transitions on arrivals.
func TestTrackerSamplingInvariant(t *testing.T) {
	run := func(sampleTimes []float64) *Report {
		ck := &clock{}
		tr := NewTracker(cfg(), ck.now)
		tr.Join(1, 0)
		c := tr.Config()
		arr := 0
		feed := func(until float64) {
			for arr < c.Blocks() {
				at := float64(arr) * c.Interval() * 1.3 // slower than live
				if at > until {
					return
				}
				ck.t = at
				tr.OnBlock(1, arr, arr+1)
				arr++
			}
		}
		for _, st := range sampleTimes {
			feed(st)
			ck.t = st
			tr.Sample(st)
		}
		feed(40)
		ck.t = 40
		return tr.Report(40)
	}
	a := run(nil)
	b := run([]float64{0.1, 1, 2.7, 3, 5, 8, 13, 21, 34})
	if a.Rebuffers != b.Rebuffers || math.Abs(a.StallS-b.StallS) > 1e-9 ||
		math.Abs(a.LagP50-b.LagP50) > 1e-9 || math.Abs(a.GoodputBps-b.GoodputBps) > 1e-9 {
		t.Fatalf("sampling changed the trajectory:\n unsampled %+v\n sampled   %+v", a, b)
	}
}

// Late joiners measure lag against their own live edge, and failed nodes
// freeze at death and drop out of live aggregates.
func TestTrackerJoinAndFail(t *testing.T) {
	ck := &clock{}
	tr := NewTracker(cfg(), ck.now)
	tr.Join(1, 0)
	tr.Join(2, 10) // flash-crowd joiner: its wave's source starts at t=10
	c := tr.Config()
	for i := 0; i < 10; i++ {
		ck.t = float64(i) * c.Interval()
		tr.OnBlock(1, i, i+1)
		tr.OnBlock(2, i, i+1) // ignored: node 2 not yet live at these times? joined, counts
	}
	ck.t = 12
	tr.Fail(1)
	// Arrivals after death are ignored.
	tr.OnBlock(1, 20, 1)
	rep := tr.Report(15)
	if rep.Live != 1 || rep.Dead != 1 {
		t.Fatalf("live/dead = %d/%d, want 1/1", rep.Live, rep.Dead)
	}
	var dead, live NodeReport
	for _, n := range rep.Nodes {
		if n.Dead {
			dead = n
		} else {
			live = n
		}
	}
	if dead.Node != 1 || dead.Blocks != 10 {
		t.Fatalf("dead row = %+v", dead)
	}
	if live.Node != 2 || live.JoinAt != 10 {
		t.Fatalf("live row = %+v", live)
	}
	// Node 2's live edge at t=15 is only 5.x s in; its lag must be
	// measured against that, not node 1's 15 s edge.
	if live.LagS > c.LiveEdge(5) {
		t.Fatalf("late joiner lag %v exceeds its own live edge %v", live.LagS, c.LiveEdge(5))
	}
}

func TestTrackerAnnotations(t *testing.T) {
	ck := &clock{}
	tr := NewTracker(cfg(), ck.now)
	var notes []string
	tr.Annotate = func(s string) { notes = append(notes, s) }
	tr.Join(1, 0)
	c := tr.Config()
	for i := 0; i < 8; i++ {
		ck.t = float64(i) * c.Interval()
		tr.OnBlock(1, i, i+1)
	}
	ck.t = 30
	tr.OnBlock(1, 8, 9) // long gap → stall registered
	for i := 9; i < 13; i++ {
		ck.t = 30.01 + 0.01*float64(i)
		tr.OnBlock(1, i, i+1) // refill → resume
	}
	if len(notes) < 2 {
		t.Fatalf("expected rebuffer + resume annotations, got %v", notes)
	}
}

func TestTrackerIgnoresUnknownNodes(t *testing.T) {
	ck := &clock{}
	tr := NewTracker(cfg(), ck.now)
	tr.Join(1, 0)
	tr.OnBlock(netem.NodeID(99), 0, 1) // source / unjoined: no-op
	tr.OnBlock(1, -5, 1)               // out-of-range ids: no-op
	tr.OnBlock(1, 1<<30, 1)
	if got := tr.Report(1).Nodes[0].Blocks; got != 0 {
		t.Fatalf("unknown/out-of-range arrivals counted: %d", got)
	}
}

// A viewer that holds the whole broadcast reports its goodput over its
// broadcast (join to join + Duration), not over the drain after it: a
// long-drained run and a late joiner still read the target rate.
func TestGoodputEndsWithTheBroadcast(t *testing.T) {
	ck := &clock{}
	c := cfg()
	c.Warmup = 2
	tr := NewTracker(c, ck.now)
	tr.Join(1, 0)
	tr.Join(2, 5)
	for i := 0; i < c.Blocks(); i++ {
		ck.t = float64(i) * c.Interval()
		tr.OnBlock(1, i, i+1)
		ck.t += 5
		tr.OnBlock(2, i, i+1)
	}
	end := c.Duration + 5 + 30 // the run drains 30 s past the joiner's broadcast
	want := c.ContentBytes() / c.Duration
	if st := tr.Sample(end); st.GoodputBps != want {
		t.Fatalf("live goodput %v, want %v", st.GoodputBps, want)
	}
	rep := tr.Report(end)
	for _, n := range rep.Nodes {
		if n.GoodputBps != want || n.GoodputBps < rep.TargetBps {
			t.Fatalf("node %d goodput %v, want %v (target %v)", n.Node, n.GoodputBps, want, rep.TargetBps)
		}
		// The first 2 s of each viewer's blocks (4 of them) fall in its warmup.
		if wantSteady := float64(c.Blocks()-4) * c.BlockSize / (c.Duration - 2); math.Abs(n.SteadyGoodputBps-wantSteady) > 1e-9 {
			t.Fatalf("node %d steady goodput %v, want %v", n.Node, n.SteadyGoodputBps, wantSteady)
		}
	}
	if rep.GoodputBps != want {
		t.Fatalf("report goodput %v, want %v", rep.GoodputBps, want)
	}
}

// The live median lag and the report's take one rule, trace.CDF's nearest
// rank: with four viewers it is the lower of the two middle lags.
func TestSampleLagMedianMatchesReport(t *testing.T) {
	ck := &clock{}
	tr := NewTracker(cfg(), ck.now)
	// Viewers that joined at 0, 1, 2 and 3 s and received nothing trail
	// their live edges by 5.5, 4.5, 3.5 and 2.5 s at t = 5.
	for i := range 4 {
		tr.Join(netem.NodeID(i), float64(i))
	}
	now := 5.0
	st := tr.Sample(now)
	rep := tr.Report(now)
	if st.LagP50 != 3.5 || rep.LagP50 != 3.5 {
		t.Fatalf("lag p50: sample %v, report %v; want both 3.5", st.LagP50, rep.LagP50)
	}
	if st.LagMax != 5.5 || rep.LagMax != 5.5 {
		t.Fatalf("lag max: sample %v, report %v; want both 5.5", st.LagMax, rep.LagMax)
	}
}
