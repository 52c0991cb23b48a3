// Package testbed is the real-socket backend of the experiment harness: it
// runs the paper's protocols — unchanged — over UDP datagrams instead of the
// emulated network. Three pieces cooperate:
//
//   - Transport implements proto.Transport over one UDP socket per node
//     (loopback by default, an address table for multi-host), with a
//     reliable in-order link per ordered node pair: sequence numbers,
//     cumulative acks, retransmission with exponential backoff, out-of-order
//     buffering, and duplicate suppression. Frames use the internal/wire
//     codec. Exhausted retries kill every connection on the pair, the same
//     signal a crashed peer produces.
//
//   - Clock maps the simulation engine's virtual time onto the monotonic
//     wall clock at a configurable rate, so the protocols' periodic timers
//     (reconciliation epochs, RanSub distribute/collect, choke intervals)
//     fire at real instants without any protocol change.
//
//   - Run is the event loop marrying the two: it advances the engine to the
//     wall-mapped virtual now, pumps retransmissions, and delivers inbound
//     datagrams, sleeping until the earlier of the next virtual event or the
//     retransmission poll tick.
//
// Determinism caveat: unlike the emulator, a testbed run's timing is real —
// two runs of the same seed schedule the same protocol decisions but observe
// different wall-clock interleavings. The deterministic piece is the loss
// injector (DropProb/DropSeed), which drops the same transmission attempts
// for equal seeds. See DESIGN.md §10.
package testbed

import (
	"time"

	"bulletprime/internal/sim"
)

// Clock maps virtual simulation time onto the monotonic wall clock: virtual
// time advances Rate seconds per wall second from the instant Start is
// called. The zero rate is invalid; NewClock defaults it to 1 (real time).
type Clock struct {
	rate  float64
	epoch time.Time
	base  sim.Time
}

// NewClock returns an unstarted clock advancing rate virtual seconds per
// wall second; rate <= 0 defaults to 1.
func NewClock(rate float64) *Clock {
	if rate <= 0 {
		rate = 1
	}
	return &Clock{rate: rate}
}

// Start anchors the clock: the current wall instant maps to virtual time
// base (the engine's Now at loop start).
func (c *Clock) Start(base sim.Time) {
	c.epoch = time.Now()
	c.base = base
}

// Now returns the virtual time the wall clock has reached.
func (c *Clock) Now() sim.Time {
	return c.base + sim.Time(time.Since(c.epoch).Seconds()*c.rate)
}

// WallUntil returns the wall duration until virtual time vt is reached;
// zero or negative means vt is already due.
func (c *Clock) WallUntil(vt sim.Time) time.Duration {
	return time.Duration(float64(vt-c.Now()) / c.rate * float64(time.Second))
}

// Virtual converts a wall duration to virtual seconds at the clock's rate.
func (c *Clock) Virtual(d time.Duration) float64 {
	return d.Seconds() * c.rate
}
