package harness

import (
	"time"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
	"bulletprime/internal/testbed"
)

// TestbedSpec switches a spec's run from the emulated network to the
// real-socket UDP backend (internal/testbed): the topology still shapes the
// overlay (node count, membership), but every connection's traffic rides
// UDP datagrams on real sockets, and the engine's virtual clock is driven
// by the wall clock at Rate. The zero value is the loopback default
// (127.0.0.1, real-time clock, 50 ms RTO, 8 retries, no injected loss). It
// is declared here once; the façade's TestbedOptions is this type, and its
// JSON form is the "testbed" block of an archived run's fingerprint: the
// knobs that shape results, not the addresses a run happened to bind. See
// DESIGN.md §10.
type TestbedSpec struct {
	// ListenHost is the bind address for nodes without a Peers entry;
	// empty means 127.0.0.1 with auto-assigned ports (loopback mode).
	ListenHost string `json:"-"`
	// Peers pins listen addresses ("host:port") per node id — the address
	// table of a multi-host deployment.
	Peers map[int]string `json:"-"`
	// Rate is virtual seconds per wall second; <= 0 means 1 (real time).
	// Raising it accelerates the protocols' periodic timers against the
	// wall clock.
	Rate float64 `json:"rate,omitempty"`
	// RTO is the wall-clock retransmission timeout in seconds before the
	// first resend (each retry doubles it); <= 0 picks the transport
	// default (50 ms).
	RTO float64 `json:"rto,omitempty"`
	// MaxRetries bounds resends per frame before the node pair is declared
	// dead; <= 0 picks the default (8).
	MaxRetries int `json:"max_retries,omitempty"`
	// DropProb injects deterministic uniform packet loss on every
	// transmission attempt (a test hook); DropSeed seeds the injector.
	DropProb float64 `json:"drop_prob,omitempty"`
	DropSeed int64   `json:"drop_seed,omitempty"`
}

// testbedBackend is the rig backend with the runtime's transport routing
// all traffic over real sockets, and testbed.Run pacing the engine against
// the wall clock instead of draining the event queue flat out. The spec's
// system builds exactly as in an emulated run: same registry, same rig.
type testbedBackend struct {
	rigBackend
	tr    *testbed.Transport
	clock *testbed.Clock
}

func newTestbedBackend(s *SweepSpec, topo *netem.Topology, h *Hooks) (*testbedBackend, error) {
	rb, err := newRigBackend(s, topo, h)
	if err != nil {
		return nil, err
	}
	cfg := testbed.Config{
		ListenHost: s.Testbed.ListenHost,
		RTO:        time.Duration(s.Testbed.RTO * float64(time.Second)),
		MaxRetries: s.Testbed.MaxRetries,
		DropProb:   s.Testbed.DropProb,
		DropSeed:   s.Testbed.DropSeed,
	}
	if len(s.Testbed.Peers) > 0 {
		cfg.Peers = make(map[netem.NodeID]string, len(s.Testbed.Peers))
		for id, addr := range s.Testbed.Peers {
			cfg.Peers[netem.NodeID(id)] = addr
		}
	}
	b := &testbedBackend{rigBackend: rb, clock: testbed.NewClock(s.Testbed.Rate)}
	b.tr, err = testbed.New(b.clock, cfg, b.rig.Members)
	if err != nil {
		return nil, err
	}
	b.rig.RT.Transport = b.tr
	if s.Tracer != nil {
		// Retransmissions surface as trace spans; the transport invokes the
		// callback on the run-loop goroutine, so it feeds the same tracer as
		// the protocol-decision sites with no extra synchronization.
		b.tr.Trace = b.rig.RT.Trace
	}
	return b, nil
}

func (b *testbedBackend) advance(sys System, deadline sim.Time, stop func() bool) bool {
	return testbed.Run(b.rig.Eng, b.tr, b.clock, deadline, sys.Complete, stop)
}

func (b *testbedBackend) close() { b.tr.Stop() }
