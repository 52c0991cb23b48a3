package stream

import "math"

// Estimator parameters (DESIGN.md §11). The shape follows the REMB /
// GCC-style receiver-side estimator: available bandwidth is the measured
// receive rate over a short window, scaled down while the one-way-delay
// gradient signals queue growth at the sender.
const (
	// estWindow is the arrival-sample ring size the gradient and rate
	// are computed over.
	estWindow = 32
	// estMinSamples gates Ready(): below this the estimate is 0 and
	// callers fall back to their loss-based signal.
	estMinSamples = 4
	// gradOveruse is the one-way-delay slope (seconds of delay per
	// second of time) above which the path is considered overused.
	gradOveruse = 0.002
	// overuseSustain is how many consecutive overuse observations are
	// required before backing off, mirroring GCC's sustained-overuse
	// detector so one jittered arrival can't trigger it.
	overuseSustain = 2
	// betaBackoff scales the estimate below the measured rate during
	// overuse — the REMB multiplicative decrease.
	betaBackoff = 0.85
)

type estSample struct {
	at    float64 // arrival time (virtual seconds)
	owd   float64 // one-way delay of the arrival (seconds)
	bytes float64
}

// Estimator is a receiver-side delay-based bandwidth estimator for one
// sender: feed it every block arrival's (time, one-way delay, size) and
// read Estimate as the sender's usable bandwidth in bytes/second. A
// rising delay gradient means the sender's queue is growing — it is
// offering more than the path delivers — so the estimate backs off below
// the measured rate before loss or rate collapse would show it. The zero
// value is ready to use.
type Estimator struct {
	win     [estWindow]estSample
	head, n int
	overuse int
}

// Observe records one block arrival. Non-finite inputs are dropped;
// negative delays (clock skew) are clamped to zero.
func (e *Estimator) Observe(at, owd, bytes float64) {
	if math.IsNaN(at) || math.IsInf(at, 0) || math.IsNaN(owd) || math.IsInf(owd, 0) ||
		math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		return
	}
	if owd < 0 {
		owd = 0
	}
	if bytes < 0 {
		bytes = 0
	}
	e.win[e.head] = estSample{at: at, owd: owd, bytes: bytes}
	e.head = (e.head + 1) % estWindow
	if e.n < estWindow {
		e.n++
	}
	if e.n >= estMinSamples && e.Gradient() > gradOveruse {
		e.overuse++
	} else {
		e.overuse = 0
	}
}

// Ready reports whether enough arrivals have been observed for the
// estimate to mean anything.
func (e *Estimator) Ready() bool { return e.n >= estMinSamples }

// Samples returns the number of arrivals currently in the window.
func (e *Estimator) Samples() int { return e.n }

// Gradient returns the least-squares slope of one-way delay versus
// arrival time over the window, in seconds of delay per second: positive
// means the sender-side queue is growing.
func (e *Estimator) Gradient() float64 {
	if e.n < 2 {
		return 0
	}
	var sumT, sumD float64
	for i := 0; i < e.n; i++ {
		s := &e.win[(e.head-e.n+i+estWindow)%estWindow]
		sumT += s.at
		sumD += s.owd
	}
	meanT := sumT / float64(e.n)
	meanD := sumD / float64(e.n)
	var num, den float64
	for i := 0; i < e.n; i++ {
		s := &e.win[(e.head-e.n+i+estWindow)%estWindow]
		num += float64((s.at - meanT) * (s.owd - meanD))
		den += float64((s.at - meanT) * (s.at - meanT))
	}
	if den <= 0 {
		return 0
	}
	g := num / den
	if math.IsNaN(g) || math.IsInf(g, 0) {
		return 0
	}
	return g
}

// Rate returns the measured receive rate over the window in
// bytes/second: the bytes of every sample after the first, over the
// window's time span.
func (e *Estimator) Rate() float64 {
	if e.n < 2 {
		return 0
	}
	first := &e.win[(e.head-e.n+estWindow)%estWindow]
	last := &e.win[(e.head-1+estWindow)%estWindow]
	span := last.at - first.at
	if span <= 0 {
		return 0
	}
	var bytes float64
	for i := 1; i < e.n; i++ {
		bytes += e.win[(e.head-e.n+i+estWindow)%estWindow].bytes
	}
	r := bytes / span
	if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return 0
	}
	return r
}

// Overusing reports whether the delay gradient has signalled sustained
// queue growth.
func (e *Estimator) Overusing() bool { return e.overuse >= overuseSustain }

// Estimate returns the usable-bandwidth estimate in bytes/second: the
// windowed receive rate, multiplicatively decreased while the delay
// gradient signals sustained overuse. 0 until Ready.
func (e *Estimator) Estimate() float64 {
	if !e.Ready() {
		return 0
	}
	r := e.Rate()
	if e.Overusing() {
		r *= betaBackoff
	}
	return r
}
