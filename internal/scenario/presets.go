package scenario

// Live-streaming stress presets (DESIGN.md §11): canned scenarios that
// exercise a continuous stream the way the one-shot presets exercise a file
// download. They are ordinary builder scenarios — nothing here is specific
// to streaming runs except the shapes (join mid-stream, leave mid-stream)
// being the ones that move lag and rebuffer metrics.

// LiveFlashCrowd is a flash crowd joining an in-progress stream: the origin
// wave (1-frac of the overlay) starts at t=0, and the crowd (frac) joins at
// joinAt, well behind the live edge. Viewers in the crowd measure lag
// against their own join time, so the preset stresses catch-up bandwidth
// rather than raw startup.
func LiveFlashCrowd(joinAt, frac float64) *Scenario {
	return New("live-flash-crowd",
		FlashCrowd(
			Wave{At: 0, Frac: 1 - frac},
			Wave{At: joinAt, Frac: frac},
		),
	)
}

// LiveChurn is departure churn during a live event: starting at time at,
// frac of the viewers leave, each after an exponential lifetime with the
// given mean. A stream survives it when the remaining viewers' lag stays
// bounded while senders vanish mid-transfer.
func LiveChurn(at, frac, meanLife float64) *Scenario {
	return New("live-churn",
		Churn(at, frac, Dist{Kind: "exp", Mean: meanLife}),
	)
}
