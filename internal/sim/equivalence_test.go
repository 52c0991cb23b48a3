package sim

import (
	"math/rand"
	"testing"
)

// The wheel engine must execute every schedule bit-for-bit identically to
// the classic heap engine (the pre-wheel implementation, kept as
// QueueHeap). This file drives randomized adversarial workloads — nested
// scheduling, same-instant bursts, cancellations, far-future overflow
// events, and past-clamped delays — through both queue kinds and requires
// identical execution traces: same event ids, same timestamps, same order.
//
// The workload generator draws every decision from an rng consumed inside
// event callbacks. If the two engines ever diverged in firing order, the
// rng streams would diverge too and amplify the difference, so trace
// equality is a strong equivalence check.

type fireRec struct {
	id int
	at Time
}

// randomWorkload runs a self-perpetuating random schedule on e and returns
// the execution trace. Budget bounds total events so the run terminates.
func randomWorkload(e *Engine, seed int64, budget int) []fireRec {
	rng := rand.New(rand.NewSource(seed))
	var trace []fireRec
	var refs []EventRef
	nextID := 0
	scheduled := 0

	var spawn func()
	spawn = func() {
		if scheduled >= budget {
			return
		}
		scheduled++
		id := nextID
		nextID++
		var at Time
		switch rng.Intn(6) {
		case 0: // same instant as now (fires later this instant, FIFO)
			at = e.Now()
		case 1: // sub-tick future: exercises in-bucket ordering
			at = e.Now() + Time(rng.Float64()*0.0009)
		case 2: // near future within the wheel horizon
			at = e.Now() + Time(rng.Float64()*7)
		case 3: // far future: overflow heap at schedule time
			at = e.Now() + Time(10+rng.Float64()*500)
		case 4: // negative delay, clamps to now
			ref := e.After(-rng.Float64(), func() {
				trace = append(trace, fireRec{id, e.Now()})
				spawn()
			})
			refs = append(refs, ref)
			return
		case 5: // bucket-boundary-ish times with exact duplicates
			at = Time(float64(int(e.Now()*1024)+rng.Intn(64)) / 1024)
			if at < e.Now() {
				at = e.Now()
			}
		}
		ref := e.Schedule(at, func() {
			trace = append(trace, fireRec{id, e.Now()})
			// Each firing spawns 1-2 successors (supercritical until the
			// budget runs out) and sometimes cancels a random outstanding
			// event.
			for n := 1 + rng.Intn(2); n > 0; n-- {
				spawn()
			}
			if len(refs) > 0 && rng.Intn(3) == 0 {
				refs[rng.Intn(len(refs))].Cancel()
			}
		})
		refs = append(refs, ref)
	}

	for i := 0; i < 40; i++ {
		spawn()
	}
	e.Run()
	return trace
}

func TestEngineEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		heapTrace := randomWorkload(NewEngineWithQueue(QueueHeap), seed, 4000)
		wheelTrace := randomWorkload(NewEngineWithQueue(QueueWheel), seed, 4000)
		if len(heapTrace) != len(wheelTrace) {
			t.Fatalf("seed %d: heap fired %d events, wheel %d", seed, len(heapTrace), len(wheelTrace))
		}
		for i := range heapTrace {
			if heapTrace[i] != wheelTrace[i] {
				t.Fatalf("seed %d: traces diverge at %d: heap %+v, wheel %+v",
					seed, i, heapTrace[i], wheelTrace[i])
			}
		}
		if len(heapTrace) < 1000 {
			t.Fatalf("seed %d: workload degenerate (%d events)", seed, len(heapTrace))
		}
	}
}

// TestEngineEquivalenceRunUntil drives both engines through interleaved
// RunUntil slices with scheduling between slices (the harness's pacing
// pattern), which exercises the unloadCur path on the wheel.
func TestEngineEquivalenceRunUntil(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		run := func(kind QueueKind) []fireRec {
			e := NewEngineWithQueue(kind)
			rng := rand.New(rand.NewSource(seed))
			var trace []fireRec
			id := 0
			schedule := func() {
				myID := id
				id++
				at := e.Now() + Time(rng.Float64()*20)
				e.Schedule(at, func() { trace = append(trace, fireRec{myID, e.Now()}) })
			}
			for i := 0; i < 200; i++ {
				schedule()
			}
			for slice := 0; slice < 50; slice++ {
				// Peek (loads a bucket), then schedule possibly-earlier
				// events from outside the event loop, then advance.
				e.NextEventAt()
				for n := rng.Intn(4); n > 0; n-- {
					schedule()
				}
				e.RunUntil(e.Now() + Time(rng.Float64()*2))
			}
			e.RunUntil(1e6)
			return trace
		}
		heapTrace := run(QueueHeap)
		wheelTrace := run(QueueWheel)
		if len(heapTrace) != len(wheelTrace) {
			t.Fatalf("seed %d: heap fired %d, wheel %d", seed, len(heapTrace), len(wheelTrace))
		}
		for i := range heapTrace {
			if heapTrace[i] != wheelTrace[i] {
				t.Fatalf("seed %d: diverge at %d: heap %+v, wheel %+v",
					seed, i, heapTrace[i], wheelTrace[i])
			}
		}
	}
}

// TestEngineEquivalenceCompactAndUnload drives both engines through the two
// wheel paths that relink slot lists in place, which the workloads above
// never reach with more than one event at stake: unloadCur returning a
// drain buffer of several events to its slot, and maybeCompact filtering
// slots that each hold a list of events.
func TestEngineEquivalenceCompactAndUnload(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		run := func(kind QueueKind) []fireRec {
			e := NewEngineWithQueue(kind)
			rng := rand.New(rand.NewSource(seed))
			var trace []fireRec
			var refs []EventRef
			id := 0
			schedule := func(at Time) {
				myID := id
				id++
				refs = append(refs, e.Schedule(at, func() { trace = append(trace, fireRec{myID, e.Now()}) }))
			}
			for round := 0; round < 8; round++ {
				base := e.Now()
				// About eight events per bucket over 256 buckets starting
				// eight ticks ahead (the first of them sure to hold four),
				// plus a few beyond the wheel horizon.
				for i := 0; i < 2000; i++ {
					b := 8 + rng.Intn(256)
					if i < 4 {
						b = 8
					}
					schedule(base + Time(float64(b)+rng.Float64())/wheelTickInv)
				}
				for i := 0; i < 50; i++ {
					schedule(base + 10 + Time(rng.Float64()*5))
				}
				e.NextEventAt() // loads the earliest bucket into the drain buffer
				if kind == QueueWheel && len(e.cur)-e.curIdx < 2 {
					t.Fatalf("seed %d round %d: drain buffer holds %d events, want several", seed, round, len(e.cur)-e.curIdx)
				}
				schedule(base + Time(rng.Intn(4))/wheelTickInv) // before it: unloadCur
				if kind == QueueWheel {
					if e.curBucket != -1 {
						t.Fatalf("seed %d round %d: early insert did not unload the drain buffer", seed, round)
					}
					linked := 0
					for _, l := range e.slots {
						if l.head != nil && l.head.next != nil {
							linked++
						}
					}
					if linked == 0 {
						t.Fatalf("seed %d round %d: no slot holds a list to compact", seed, round)
					}
				}
				compactions := e.Compactions
				for _, r := range refs {
					if rng.Intn(4) != 0 {
						r.Cancel()
					}
				}
				refs = refs[:0]
				if e.Compactions == compactions {
					t.Fatalf("seed %d round %d: cancelling three in four events never compacted", seed, round)
				}
				e.RunUntil(base + 300/wheelTickInv) // past every bucket of the round
			}
			e.RunUntil(1e6)
			return trace
		}
		heapTrace := run(QueueHeap)
		wheelTrace := run(QueueWheel)
		if len(heapTrace) != len(wheelTrace) {
			t.Fatalf("seed %d: heap fired %d, wheel %d", seed, len(heapTrace), len(wheelTrace))
		}
		for i := range heapTrace {
			if heapTrace[i] != wheelTrace[i] {
				t.Fatalf("seed %d: diverge at %d: heap %+v, wheel %+v",
					seed, i, heapTrace[i], wheelTrace[i])
			}
		}
	}
}
