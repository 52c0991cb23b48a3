package netem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"bulletprime/internal/sim"
)

// checkDeferral asserts, between two engine events, what armComponent
// promises about the flows it left without a completion event: none of them
// is past due, and each one's component still has something coming that
// ends in a refill — a completion event of its own, or a pending
// recomputation that reaches it.
func checkDeferral(net *Network, all []*Flow) error {
	now := net.Eng.Now()
	deferred := func(f *Flow) bool {
		return f.open && f.busy && f.rate > 0 && !f.completion.Pending()
	}
	for _, f := range all {
		if !deferred(f) {
			continue
		}
		if due := f.lastUpdate + sim.Time(f.remaining/f.rate); due < now {
			return fmt.Errorf("flow %d was due at %v and has no completion event", f.id, due)
		}
	}
	marked := func(s *endpointSet, id NodeID) bool { return s.mark != nil && s.mark[id] }
	for ci := range net.part.comps {
		waiting, covered := false, false
		for _, f := range net.part.comps[ci].flows {
			waiting = waiting || deferred(f)
			covered = covered || f.completion.Pending() ||
				net.dirty && (marked(&net.dirtyOut, f.src) || marked(&net.dirtyIn, f.dst))
		}
		if waiting && !covered {
			return fmt.Errorf("component %v has deferred flows, no completion event and no recomputation coming", flowIDs(net.part.comps[ci].flows))
		}
	}
	return nil
}

// TestNoDeferredCompletionOverdue runs the partition oracle's churn workload
// — starts, closes, link changes, access links dropping to zero and coming
// back, slow-start ramps on every replaced flow — and checks the deferral
// contract after every engine event. Taking DefaultRecomputeInterval out of
// armComponent's horizon fails it.
func TestNoDeferredCompletionOverdue(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		w := newPartitionChurn(seed)
		w.step = func() {
			if err := checkDeferral(w.net, w.all); err != nil {
				t.Fatalf("seed %d t=%v: %v", seed, w.eng.Now(), err)
			}
		}
		w.run(6)
		if w.net.CompletionsDeferred == 0 || w.net.CompletionsArmed < uint64(len(w.log)) {
			t.Fatalf("seed %d: %d completions armed and %d deferred for %d fired; the run does not exercise deferral",
				seed, w.net.CompletionsArmed, w.net.CompletionsDeferred, len(w.log))
		}
	}
}

// TestEarlyCompletionEventAsksForRefill forces the one path on which a
// completion event does not end in a flow finishing: flow a's event fires
// with bytes still to serve (its lastUpdate is moved by hand), so a is
// re-armed further out than b, which was deferred behind it. Unless that
// branch asks for a refill, nothing arms b and it comes due with no event.
func TestEarlyCompletionEventAsksForRefill(t *testing.T) {
	eng := sim.NewEngine()
	topo := NewTopology(3)
	topo.SetUniformAccess(1e6, 1e6, 0)
	net := New(eng, topo, sim.NewRNG(1).Stream("net"))
	a, b := net.NewFlow(0, 2), net.NewFlow(1, 2)
	eng.RunUntil(30) // past slow start
	var doneA, doneB sim.Time
	a.Start(50e3, func() { doneA = eng.Now() })
	b.Start(65e3, func() { doneB = eng.Now() })
	check := func() {
		if err := checkDeferral(net, []*Flow{a, b}); err != nil {
			t.Fatalf("t=%v: %v", eng.Now(), err)
		}
	}
	stepUntil(eng, 30.05, check)
	// Half the inbound link each: a is due at 30.1, b at 30.13, which is
	// past a's completion plus one interval.
	if !a.completion.Pending() || b.completion.Pending() || a.rate != 5e5 || b.rate != 5e5 {
		t.Fatalf("want a armed and b deferred at 500 kB/s each; a %v at %v, b %v at %v",
			a.completion.Pending(), a.rate, b.completion.Pending(), b.rate)
	}
	a.lastUpdate = 31 // a's event at 30.1 will find nothing served
	stepUntil(eng, 32, check)
	if doneB < 30.1 || doneB > 30.14 {
		t.Fatalf("b finished at %v, want shortly after 30.13", doneB)
	}
	if doneA <= doneB {
		t.Fatalf("a finished at %v, before b at %v; its event was meant to fire early and re-arm", doneA, doneB)
	}
}

// TestGoldenCompletionLog pins the emulator's externally visible schedule —
// every (flow id, completion time) pair in firing order, same-instant ties
// included — to hashes recorded on the commit before refills stopped arming
// every completion. The run is the partition oracle's churn workload grown
// to 300 streams on 120 nodes: 80 nodes whose flows tie into one giant
// component and eight five-node islands, under eight chains of link changes.
// The odd seed runs on random links, the even one on equal links with two
// transfer sizes, where flows finish at the same instant and only the order
// of the engine's sequence draws decides who fires first.
func TestGoldenCompletionLog(t *testing.T) {
	for _, row := range []struct {
		seed        int64
		completions int
		hash        uint64
	}{
		{seed: 3, completions: 4620, hash: 0x3c04fba09ad7545},
		{seed: 4, completions: 7839, hash: 0x34f302b7c8ab9b96},
	} {
		w := newChurn(row.seed, 120, 80)
		w.streams, w.chains = 300, 8
		giant := 0
		w.step = func() {
			for i := range w.net.part.comps {
				giant = max(giant, len(w.net.part.comps[i].flows))
			}
		}
		w.run(8)

		h := fnv.New64a()
		var buf [16]byte
		ties := 0
		for i, c := range w.log {
			binary.LittleEndian.PutUint64(buf[:8], uint64(c.id))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(float64(c.at)))
			h.Write(buf[:])
			if i > 0 && w.log[i-1].at == c.at {
				ties++
			}
		}
		small := 0
		for i := range w.net.part.comps {
			if k := len(w.net.part.comps[i].flows); k > 0 && k < 40 {
				small++
			}
		}
		if giant < 150 || small < 4 {
			t.Fatalf("seed %d: largest component ever %d flows, %d small components at the end; want one giant and several small", row.seed, giant, small)
		}
		if w.equal && ties < 100 {
			t.Fatalf("seed %d: %d same-instant completions; equal links must tie", row.seed, ties)
		}
		if len(w.log) != row.completions || h.Sum64() != row.hash {
			t.Fatalf("seed %d: %d completions hashing to %#x (%d ties), recorded %d and %#x",
				row.seed, len(w.log), h.Sum64(), ties, row.completions, row.hash)
		}
	}
}
