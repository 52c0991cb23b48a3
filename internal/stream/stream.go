// Package stream implements the continuous live-streaming workload layer
// (DESIGN.md §11). A live source emits blocks at a target bitrate instead
// of holding the whole file at t=0, and per-node receivers are modeled as
// media players: a playout buffer of configurable depth fills before
// playback starts, the playhead then consumes content in real time, and
// running dry is a rebuffer event. The Tracker turns block arrivals into
// the streaming quality metrics the paper's "maintaining high bandwidth"
// claim is really about — lag behind the live edge, inter-block jitter,
// sustained goodput, and rebuffer counts — and the Estimator (estimator.go)
// provides the receiver-side delay-gradient bandwidth signal Bullet' can
// rank senders by instead of its loss/throughput signal.
//
// The package is engine-passive: it schedules no events and only observes
// block arrivals, so attaching a Tracker never perturbs a simulation.
package stream

import (
	"fmt"
	"math"
	"sort"

	"bulletprime/internal/netem"
	"bulletprime/internal/trace"
)

// Config parameterizes a live stream. All rates are bytes per second
// (matching GoodputBps elsewhere in the repo) and all times are virtual
// seconds.
type Config struct {
	// BitrateBps is the source emission rate in bytes/second: one
	// BlockSize block is released every BlockSize/BitrateBps seconds.
	BitrateBps float64
	// BlockSize is the stream block size in bytes.
	BlockSize float64
	// Duration is how long the source emits, in seconds; it emits Blocks()
	// blocks and stops.
	Duration float64
	// PlayoutDepth is the playout buffer depth in seconds: playback
	// starts (and resumes after a stall) once this much contiguous
	// content beyond the playhead is buffered.
	PlayoutDepth float64
	// Warmup starts the steady-state metric window: bytes received
	// within Warmup seconds of a node's join are excluded from its
	// steady goodput.
	Warmup float64
}

// Interval is the block emission period in seconds; one block also
// carries Interval seconds of content.
func (c Config) Interval() float64 { return c.BlockSize / c.BitrateBps }

// Blocks is the total number of content blocks the source emits,
// ⌈BitrateBps·Duration/BlockSize⌉ and at least one: the one block-count
// formula, from which the session's file (ContentBytes) is derived too.
func (c Config) Blocks() int {
	n := int(math.Ceil(c.BitrateBps * c.Duration / c.BlockSize))
	if n < 1 {
		n = 1
	}
	return n
}

// ContentBytes is the total stream payload, Blocks()*BlockSize.
func (c Config) ContentBytes() float64 { return float64(c.Blocks()) * c.BlockSize }

// ContentSeconds is the playable length of the full stream.
func (c Config) ContentSeconds() float64 { return float64(c.Blocks()) * c.Interval() }

// LiveEdge returns the content seconds a source that started sinceStart
// seconds ago has emitted: block i is released at i*Interval and adds
// Interval seconds of content.
func (c Config) LiveEdge(sinceStart float64) float64 {
	if sinceStart < 0 {
		return 0
	}
	iv := c.Interval()
	edge := (math.Floor(sinceStart/iv) + 1) * iv
	if max := c.ContentSeconds(); edge > max {
		edge = max
	}
	return edge
}

// Receiver is the per-node playout model: a contiguous-frontier buffer
// plus a playhead that consumes content in real time once PlayoutDepth
// seconds are buffered. All mutation happens on arrival events, so the
// trajectory is identical whether or not the run is being sampled.
type Receiver struct {
	id     netem.NodeID
	cfg    *Config
	joinAt float64

	have     []bool
	frontier int // blocks contiguous from 0
	novel    int

	bytes       float64 // novel payload received
	steadyBytes float64 // novel payload received after Warmup
	lastArrival float64
	arrived     bool
	gaps        trace.Stats // inter-arrival gaps of novel blocks

	playing     bool
	started     bool
	playhead    float64 // content seconds consumed
	lastAdvance float64
	stalledAt   float64
	startupS    float64
	rebuffers   int
	resumes     int
	stallS      float64
	peakLag     float64

	// Annotation drain cursors: rebuffer/resume transitions are detected
	// lazily (possibly during a sampling advance), but annotations are
	// emitted only from arrival events so observed and unobserved runs
	// produce identical annotation streams.
	annRebuf  int
	annResume int

	dead   bool
	deadAt float64
}

func (r *Receiver) frontierSec() float64 { return float64(r.frontier) * r.cfg.Interval() }

// lag is the receiver's distance behind its live edge, in content seconds.
func (r *Receiver) lag(now float64) float64 {
	l := r.cfg.LiveEdge(now-r.joinAt) - r.playhead
	if l < 0 {
		l = 0
	}
	return l
}

// advance moves the playhead from lastAdvance to now, registering a stall
// at the exact instant the buffer ran dry and resuming once PlayoutDepth
// seconds (or whatever content remains) are buffered again. Transitions
// only ever fire inside arrival-driven advances — between arrivals the
// buffer can only shrink — so sampling-driven advances never change the
// trajectory.
func (r *Receiver) advance(now float64) {
	if r.dead || now < r.lastAdvance {
		return
	}
	if r.playing {
		room := r.frontierSec() - r.playhead
		dt := now - r.lastAdvance
		if dt >= room && r.frontier < r.cfg.Blocks() {
			stallStart := r.lastAdvance + room
			r.playhead += room
			r.playing = false
			r.rebuffers++
			r.stalledAt = stallStart
		} else {
			r.playhead += math.Min(dt, room)
		}
	}
	r.lastAdvance = now
	if !r.playing {
		remaining := r.cfg.ContentSeconds() - r.playhead
		if remaining > 1e-9 {
			need := math.Min(r.cfg.PlayoutDepth, remaining)
			if r.frontierSec()-r.playhead >= need-1e-9 {
				r.playing = true
				if !r.started {
					r.started = true
					r.startupS = now - r.joinAt
				} else {
					r.resumes++
					r.stallS += now - r.stalledAt
				}
			}
		}
	}
}

// Tracker observes block arrivals for every joined receiver and
// aggregates the live-streaming metrics. It is wired into the harness as
// an OnBlock observer; Join/Fail reflect membership (flash-crowd waves
// join late, churned nodes die).
type Tracker struct {
	cfg   Config
	now   func() float64
	order []netem.NodeID
	recv  map[netem.NodeID]*Receiver

	// Annotate, when set, receives rebuffer/resume event descriptions
	// (it feeds the run's Annotation stream).
	Annotate func(text string)
	// Trace, when set, receives the same rebuffer/resume transitions as
	// typed events (it feeds the run's structured trace). Drained from
	// arrival events under the same cursors as Annotate, so traced and
	// untraced runs stay bit-identical.
	Trace func(at float64, node int, kind, note string)
}

// NewTracker builds a tracker for one live-stream run; now supplies the
// current virtual time.
func NewTracker(cfg Config, now func() float64) *Tracker {
	if cfg.BitrateBps <= 0 || cfg.BlockSize <= 0 || cfg.Duration <= 0 {
		panic("stream: Config needs positive BitrateBps, BlockSize, Duration")
	}
	return &Tracker{cfg: cfg, now: now, recv: make(map[netem.NodeID]*Receiver)}
}

// Config returns the tracked stream's configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Join registers a receiver whose live edge starts at time at (its
// session start — 0 for the initial cohort, the wave time for flash-crowd
// joiners). Sources are simply never joined.
func (t *Tracker) Join(id netem.NodeID, at float64) {
	if _, dup := t.recv[id]; dup {
		return
	}
	r := &Receiver{id: id, cfg: &t.cfg, joinAt: at, lastAdvance: at, have: make([]bool, t.cfg.Blocks())}
	t.recv[id] = r
	t.order = append(t.order, id)
}

// Fail marks a receiver dead (churned/crashed); its metrics freeze at the
// time of death and it is excluded from live aggregates.
func (t *Tracker) Fail(id netem.NodeID) {
	r := t.recv[id]
	if r == nil || r.dead {
		return
	}
	now := t.now()
	r.advance(now)
	r.dead = true
	r.deadAt = now
}

// OnBlock records a block arrival (harness OnBlock signature). Unknown
// nodes — sources, non-joined members — are ignored.
func (t *Tracker) OnBlock(node netem.NodeID, blockID int, _ int) {
	r := t.recv[node]
	if r == nil || r.dead {
		return
	}
	now := t.now()
	r.advance(now)
	if lag := r.lag(now); lag > r.peakLag {
		r.peakLag = lag
	}
	if blockID >= 0 && blockID < len(r.have) && !r.have[blockID] {
		r.have[blockID] = true
		r.novel++
		r.bytes += t.cfg.BlockSize
		if now-r.joinAt >= t.cfg.Warmup {
			r.steadyBytes += t.cfg.BlockSize
		}
		if r.arrived {
			r.gaps.Add(now - r.lastArrival)
		}
		r.lastArrival = now
		r.arrived = true
		for r.frontier < len(r.have) && r.have[r.frontier] {
			r.frontier++
		}
		r.advance(now) // a refill may resume playback
	}
	if t.Annotate != nil || t.Trace != nil {
		for r.annRebuf < r.rebuffers {
			r.annRebuf++
			if t.Annotate != nil {
				t.Annotate(fmt.Sprintf("node %d rebuffering (lag %.2fs)", node, r.lag(now)))
			}
			if t.Trace != nil {
				t.Trace(now, int(node), "rebuffer", fmt.Sprintf("lag %.2fs", r.lag(now)))
			}
		}
		for r.annResume < r.resumes {
			r.annResume++
			if t.Annotate != nil {
				t.Annotate(fmt.Sprintf("node %d resumed playback after %.1fs stalled (playhead %.1fs)", node, r.stallS, r.playhead))
			}
			if t.Trace != nil {
				t.Trace(now, int(node), "resume", fmt.Sprintf("stalled %.1fs", r.stallS))
			}
		}
	}
}

// LiveStats is the instantaneous cross-receiver snapshot sampled into the
// Subscribe/Sample pipeline each tick.
type LiveStats struct {
	LagP50         float64 // median live receiver lag (s)
	LagMax         float64 // worst live receiver lag (s)
	Rebuffering    int     // receivers currently stalled mid-playback
	RebufferEvents int     // cumulative rebuffer events across the run
	GoodputBps     float64 // mean per-receiver novel-payload rate
}

// Sample computes the instantaneous snapshot at time now over receivers
// that have joined and are still alive.
func (t *Tracker) Sample(now float64) LiveStats {
	var st LiveStats
	lags := make([]float64, 0, len(t.order))
	var goodput float64
	var live int
	for _, id := range t.order {
		r := t.recv[id]
		st.RebufferEvents += r.rebuffers
		if r.dead || now < r.joinAt {
			continue
		}
		r.advance(now)
		live++
		lags = append(lags, r.lag(now))
		if el := now - r.joinAt; el > 0 {
			goodput += r.bytes / el
		}
		if r.started && !r.playing {
			st.Rebuffering++
		}
	}
	if live == 0 {
		return st
	}
	sort.Float64s(lags)
	st.LagP50 = lags[live/2]
	st.LagMax = lags[live-1]
	st.GoodputBps = goodput / float64(live)
	return st
}

// NodeReport is one receiver's final streaming metrics.
type NodeReport struct {
	Node             int     `json:"node"`
	JoinAt           float64 `json:"join_at"`
	LagS             float64 `json:"lag_s"`      // final lag behind the live edge
	PeakLagS         float64 `json:"peak_lag_s"` // worst lag seen at any arrival
	JitterS          float64 `json:"jitter_s"`   // stddev of novel inter-arrival gaps
	StartupS         float64 `json:"startup_s"`  // join → first playback
	Rebuffers        int     `json:"rebuffers"`
	StallS           float64 `json:"stall_s"`
	GoodputBps       float64 `json:"goodput_bps"`
	SteadyGoodputBps float64 `json:"steady_goodput_bps"`
	Blocks           int     `json:"blocks"`
	Dead             bool    `json:"dead,omitempty"`
}

// Report is the end-of-run streaming summary: per-receiver rows plus
// aggregate quantiles over the receivers that were still alive at the
// end. Steady goodput is measured over the post-Warmup window.
type Report struct {
	TargetBps        float64      `json:"target_bps"`
	Duration         float64      `json:"duration"`
	Nodes            []NodeReport `json:"nodes"`
	LagP50           float64      `json:"lag_p50"`
	LagP90           float64      `json:"lag_p90"`
	LagMax           float64      `json:"lag_max"`
	PeakLagMax       float64      `json:"peak_lag_max"`
	JitterP50        float64      `json:"jitter_p50"`
	StartupP50       float64      `json:"startup_p50"`
	Rebuffers        int          `json:"rebuffers"`
	StallS           float64      `json:"stall_s"`
	GoodputBps       float64      `json:"goodput_bps"`        // mean across live receivers
	SteadyGoodputBps float64      `json:"steady_goodput_bps"` // mean post-warmup rate
	Live             int          `json:"live"`               // receivers alive at end
	Dead             int          `json:"dead"`
}

// Report finalizes every receiver at time end and aggregates.
func (t *Tracker) Report(end float64) *Report {
	rep := &Report{TargetBps: t.cfg.BitrateBps, Duration: t.cfg.Duration}
	var lagCDF, peakCDF, jitCDF, startCDF trace.CDF
	var goodput, steady float64
	for _, id := range t.order {
		r := t.recv[id]
		at := end
		if r.dead {
			at = r.deadAt
		}
		r.advance(at)
		if lag := r.lag(at); lag > r.peakLag {
			r.peakLag = lag
		}
		nr := NodeReport{
			Node:      int(r.id),
			JoinAt:    r.joinAt,
			LagS:      r.lag(at),
			PeakLagS:  r.peakLag,
			JitterS:   r.gaps.Std(),
			StartupS:  r.startupS,
			Rebuffers: r.rebuffers,
			StallS:    r.stallS,
			Blocks:    r.novel,
			Dead:      r.dead,
		}
		if el := at - r.joinAt; el > 0 {
			nr.GoodputBps = r.bytes / el
			if sl := el - t.cfg.Warmup; sl > 0 {
				nr.SteadyGoodputBps = r.steadyBytes / sl
			}
		}
		rep.Nodes = append(rep.Nodes, nr)
		rep.Rebuffers += r.rebuffers
		rep.StallS += r.stallS
		if r.dead {
			rep.Dead++
			continue
		}
		rep.Live++
		lagCDF.Add(nr.LagS)
		peakCDF.Add(nr.PeakLagS)
		jitCDF.Add(nr.JitterS)
		if r.started {
			startCDF.Add(nr.StartupS)
		}
		goodput += nr.GoodputBps
		steady += nr.SteadyGoodputBps
	}
	if rep.Live > 0 {
		rep.LagP50 = lagCDF.Median()
		rep.LagP90 = lagCDF.Quantile(0.9)
		rep.LagMax = lagCDF.Worst()
		rep.PeakLagMax = peakCDF.Worst()
		rep.JitterP50 = jitCDF.Median()
		if startCDF.N() > 0 {
			rep.StartupP50 = startCDF.Median()
		}
		rep.GoodputBps = goodput / float64(rep.Live)
		rep.SteadyGoodputBps = steady / float64(rep.Live)
	}
	return rep
}
