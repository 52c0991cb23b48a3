package netem

import "math"

// TCP model parameters. The emulator does not simulate segments; instead it
// caps each flow's rate with the Mathis steady-state formula and a
// slow-start ramp, and perturbs small-message latency with retransmission
// stalls. These are the three TCP effects the paper's results depend on.
const (
	// MSS is the TCP maximum segment size assumed by the throughput model.
	MSS = 1460.0

	// mathisC is the constant of the Mathis et al. formula
	// rate = MSS * C / (RTT * sqrt(p)) with delayed ACKs disabled.
	mathisC = 1.2247448713915890 // sqrt(3/2)

	// initialWindow is the slow-start initial congestion window in segments.
	initialWindow = 2.0

	// minRTO mirrors the conventional TCP minimum retransmission timeout.
	minRTO = 0.2
)

// MathisCap returns the loss-limited steady-state TCP throughput in
// bytes/second for the given round-trip time (seconds) and loss probability.
// Zero loss or zero RTT mean "uncapped" and return +Inf.
func MathisCap(rtt, loss float64) float64 {
	if loss <= 0 || rtt <= 0 {
		return math.Inf(1)
	}
	return MSS * mathisC / (rtt * math.Sqrt(loss))
}

// SlowStartCap returns the rate cap (bytes/second) of a connection that has
// been transmitting for "age" seconds over a path with the given RTT: the
// congestion window starts at initialWindow segments and doubles every RTT.
// Once the implied window is large the cap rapidly exceeds any link rate and
// stops binding.
func SlowStartCap(age, rtt float64) float64 {
	if rtt <= 0 {
		return math.Inf(1)
	}
	if age < 0 {
		age = 0
	}
	doublings := age / rtt
	if doublings > 40 { // 2^40 segments: far beyond any link here
		return math.Inf(1)
	}
	window := initialWindow * math.Exp2(doublings) * MSS
	return window / rtt
}

// slowStartMayBind reports whether SlowStartCap(age, rtt) can be below cap,
// without computing its math.Exp2. With d = age/rtt the ramp is
// (initialWindow·Exp2(d))·MSS/rtt. The bound 2^⌊d⌋·MSS/rtt takes the same
// two rounded steps from 2^⌊d⌋ = initialWindow·2^(⌊d⌋−1), which is below
// initialWindow·Exp2(d) by a factor of at least 2, and IEEE multiply and
// divide are monotone: when the bound reaches cap, the ramp does too. A false
// answer is therefore exact; true means "compute the ramp".
func slowStartMayBind(age, rtt, cap float64) bool {
	if rtt <= 0 {
		return false // SlowStartCap is +Inf
	}
	d := max(age, 0) / rtt
	if !(d <= 40) {
		return false // +Inf as well, or NaN, which is below nothing
	}
	return float64(float64(uint64(1)<<uint(d))*MSS)/rtt < cap
}

// RTO returns the retransmission timeout used to model control-message
// latency spikes on lossy paths: max(minRTO, 2*RTT).
func RTO(rtt float64) float64 {
	return math.Max(minRTO, 2*rtt)
}
