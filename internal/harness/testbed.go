package harness

import (
	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
	"bulletprime/internal/testbed"
)

// TestbedSpec switches a spec's run from the emulated network to the
// real-socket UDP backend (internal/testbed): the topology still shapes the
// overlay (node count, membership), but every connection's traffic rides
// UDP datagrams on real sockets, and the engine's virtual clock is driven
// by the wall clock at Rate. It is testbed.Config, the one declaration of
// the testbed's options; the façade's TestbedOptions is the same type.
type TestbedSpec = testbed.Config

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
	b := &testbedBackend{rigBackend: rb, clock: testbed.NewClock(s.Testbed.Rate)}
	b.tr, err = testbed.New(b.clock, *s.Testbed, b.rig.Members)
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
