package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// queueKinds parameterizes tests over both queue implementations.
var queueKinds = map[string]QueueKind{"wheel": QueueWheel, "heap": QueueHeap}

func forEachQueue(t *testing.T, f func(t *testing.T, e *Engine)) {
	for name, kind := range queueKinds {
		t.Run(name, func(t *testing.T) { f(t, NewEngineWithQueue(kind)) })
	}
}

func TestScheduleOrdering(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		var got []int
		e.Schedule(3, func() { got = append(got, 3) })
		e.Schedule(1, func() { got = append(got, 1) })
		e.Schedule(2, func() { got = append(got, 2) })
		e.Run()
		want := []int{1, 2, 3}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order = %v, want %v", got, want)
			}
		}
		if e.Now() != 3 {
			t.Fatalf("clock = %v, want 3", e.Now())
		}
	})
}

func TestFIFOTieBreak(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		var got []int
		for i := 0; i < 100; i++ {
			i := i
			e.Schedule(5, func() { got = append(got, i) })
		}
		e.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("same-time events fired out of order: got[%d]=%d", i, v)
			}
		}
	})
}

func TestCancel(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		fired := false
		ev := e.Schedule(1, func() { fired = true })
		ev.Cancel()
		e.Run()
		if fired {
			t.Fatal("cancelled event fired")
		}
		ev.Cancel() // double-cancel must be a no-op
	})
}

func TestCancelledReporting(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	if ev.Cancelled() || !ev.Pending() {
		t.Fatal("fresh event must be pending and not cancelled")
	}
	ev.Cancel()
	if !ev.Cancelled() || ev.Pending() {
		t.Fatal("Cancelled() = false or still pending after Cancel")
	}
}

func TestCancelZeroRefSafe(t *testing.T) {
	var ev EventRef
	ev.Cancel() // must not panic
	if ev.Pending() || ev.Cancelled() {
		t.Fatal("zero EventRef must be inert")
	}
}

// TestStaleRefCannotCancelRecycledNode is the engine-level use-after-return
// guard: once an event fires, its node returns to the free list and may be
// reused; a stale ref held by the old owner must not affect the new event.
func TestStaleRefCannotCancelRecycledNode(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		first := e.Schedule(1, func() {})
		e.Run()
		if first.Pending() {
			t.Fatal("fired event still pending through its ref")
		}
		secondFired := false
		second := e.Schedule(2, func() { secondFired = true })
		if second.ev != first.ev {
			t.Fatalf("free list did not recycle the node (got %p, want %p)", second.ev, first.ev)
		}
		first.Cancel() // stale: must be a no-op on the recycled node
		if first.Cancelled() {
			t.Fatal("stale ref reports Cancelled")
		}
		e.Run()
		if !secondFired {
			t.Fatal("stale Cancel killed an unrelated recycled event")
		}
	})
}

func TestAfterClampsNegative(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		e.Schedule(10, func() {
			e.After(-5, func() {}) // would be in the past if not clamped
			e.After(math.Inf(-1), func() {})
		})
		e.Run()
		if e.Now() != 10 {
			t.Fatalf("clock = %v, want 10", e.Now())
		}
		if e.Executed != 3 {
			t.Fatalf("executed %d events, want 3 (clamped events must fire)", e.Executed)
		}
	})
}

func TestNaNSchedulingPanics(t *testing.T) {
	cases := map[string]func(e *Engine){
		"schedule-at-nan": func(e *Engine) { e.Schedule(Time(math.NaN()), func() {}) },
		"after-nan":       func(e *Engine) { e.After(math.NaN(), func() {}) },
		"afterevent-nan":  func(e *Engine) { e.AfterEvent(math.NaN(), handlerFunc(nil), 0, nil) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("NaN scheduling did not panic")
				}
			}()
			f(NewEngine())
		})
	}
}

func TestFarFutureGoesToOverflow(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(1e6, func() { got = append(got, 2) })      // beyond wheel horizon
	e.Schedule(Forever, func() { got = append(got, 3) })  // beyond bucket arithmetic
	e.Schedule(0.5, func() { got = append(got, 1) })      // in the wheel
	e.After(math.Inf(1), func() { got = append(got, 4) }) // +Inf delay
	e.Run()
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("order = %v, want [1 2 3 4]", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		e.Schedule(10, func() {
			defer func() {
				if recover() == nil {
					t.Error("scheduling in the past did not panic")
				}
			}()
			e.Schedule(5, func() {})
		})
		e.Run()
	})
}

func TestNestedScheduling(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		depth := 0
		var rec func()
		rec = func() {
			depth++
			if depth < 50 {
				e.After(1, rec)
			}
		}
		e.After(1, rec)
		e.Run()
		if depth != 50 {
			t.Fatalf("depth = %d, want 50", depth)
		}
		if e.Now() != 50 {
			t.Fatalf("clock = %v, want 50", e.Now())
		}
	})
}

// handlerFunc adapts a func to Handler for tests.
type handlerFunc func(kind int32, payload any)

func (h handlerFunc) OnEvent(kind int32, payload any) {
	if h != nil {
		h(kind, payload)
	}
}

func TestTypedEvents(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		type rec struct {
			kind    int32
			payload any
		}
		var got []rec
		h := handlerFunc(func(kind int32, payload any) { got = append(got, rec{kind, payload}) })
		p := &struct{ x int }{7}
		e.ScheduleEvent(2, h, 11, p)
		e.AfterEvent(1, h, 22, nil)
		e.Run()
		if len(got) != 2 || got[0].kind != 22 || got[1].kind != 11 || got[1].payload != any(p) {
			t.Fatalf("typed events = %+v, want kind 22 then kind 11 with payload", got)
		}
	})
}

func TestTypedEventCancel(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		fired := false
		ev := e.ScheduleEvent(1, handlerFunc(func(int32, any) { fired = true }), 0, nil)
		ev.Cancel()
		e.Run()
		if fired {
			t.Fatal("cancelled typed event fired")
		}
	})
}

func TestStop(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		count := 0
		for i := 0; i < 10; i++ {
			e.Schedule(Time(i), func() {
				count++
				if count == 3 {
					e.Stop()
				}
			})
		}
		e.Run()
		if count != 3 {
			t.Fatalf("executed %d events after Stop, want 3", count)
		}
	})
}

func TestRunUntil(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		var fired []Time
		for i := 1; i <= 10; i++ {
			at := Time(i)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		n := e.RunUntil(5)
		if n != 5 {
			t.Fatalf("RunUntil executed %d, want 5", n)
		}
		if e.Now() != 5 {
			t.Fatalf("clock = %v, want 5", e.Now())
		}
		n = e.RunUntil(100)
		if n != 5 {
			t.Fatalf("second RunUntil executed %d, want 5", n)
		}
		if e.Now() != 100 {
			t.Fatalf("clock = %v, want 100 (advanced to deadline)", e.Now())
		}
	})
}

// TestScheduleBehindLoadedBucket covers the unloadCur path: a peek loads a
// future bucket into the drain buffer, then an external caller schedules an
// earlier event; the earlier event must still fire first.
func TestScheduleBehindLoadedBucket(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(5, func() { got = append(got, 5) })
	if at, ok := e.NextEventAt(); !ok || at != 5 {
		t.Fatalf("NextEventAt = %v,%v, want 5,true", at, ok)
	}
	// The 5s bucket is now loaded; schedule earlier (different bucket) and
	// same-bucket-but-earlier events.
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(5, func() { got = append(got, 6) }) // same bucket, later seq
	e.Run()
	want := []int{1, 5, 6}
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		ev := e.Schedule(1, func() { t.Error("cancelled event ran") })
		ev.Cancel()
		fired := false
		e.Schedule(2, func() { fired = true })
		e.RunUntil(3)
		if !fired {
			t.Fatal("live event did not run")
		}
	})
}

// Property: any set of scheduled times is executed in nondecreasing order.
func TestPropertyExecutionOrder(t *testing.T) {
	for name, kind := range queueKinds {
		kind := kind
		t.Run(name, func(t *testing.T) {
			f := func(times []uint16) bool {
				e := NewEngineWithQueue(kind)
				var fired []Time
				for _, ti := range times {
					at := Time(ti)
					e.Schedule(at, func() { fired = append(fired, at) })
				}
				e.Run()
				if len(fired) != len(times) {
					return false
				}
				return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: interleaving cancellations never loses live events.
func TestPropertyCancelSubset(t *testing.T) {
	for name, kind := range queueKinds {
		kind := kind
		t.Run(name, func(t *testing.T) {
			f := func(times []uint8, seed int64) bool {
				e := NewEngineWithQueue(kind)
				rng := rand.New(rand.NewSource(seed))
				live := 0
				fired := 0
				var evs []EventRef
				for _, ti := range times {
					evs = append(evs, e.Schedule(Time(ti), func() { fired++ }))
				}
				for _, ev := range evs {
					if rng.Intn(2) == 0 {
						ev.Cancel()
					} else {
						live++
					}
				}
				e.Run()
				return fired == live
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQueueCompaction(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		// Schedule far more events than compactMin across both the wheel
		// and the overflow heap, cancel almost all of them, and check the
		// queue shrinks without losing live events.
		var evs []EventRef
		for i := 0; i < 4*compactMin; i++ {
			at := Time(i+1) * 0.004 // wheel range
			if i%3 == 0 {
				at = Time(100 + i) // overflow range
			}
			evs = append(evs, e.Schedule(at, func() {}))
		}
		live := 0
		for i, ev := range evs {
			if i%8 != 0 {
				ev.Cancel()
			} else {
				live++
			}
		}
		if e.Compactions == 0 {
			t.Fatal("no compaction despite cancelled events dominating a large queue")
		}
		if e.Pending() > live+compactMin {
			t.Fatalf("Pending = %d after compaction, want near %d live", e.Pending(), live)
		}
		fired := 0
		for e.Step() {
			fired++
		}
		if fired != live {
			t.Fatalf("fired %d events, want %d", fired, live)
		}
	})
}

func TestCompactionPreservesOrder(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		var fired []Time
		var evs []EventRef
		for i := 0; i < 2*compactMin; i++ {
			at := Time((i*7919)%5000) * 0.01 // scattered, duplicated timestamps
			evs = append(evs, e.Schedule(at, func() { fired = append(fired, at) }))
		}
		for i, ev := range evs {
			if i%4 != 3 {
				ev.Cancel()
			}
		}
		e.Run()
		if len(fired) != len(evs)/4 {
			t.Fatalf("fired %d, want %d", len(fired), len(evs)/4)
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatal("events fired out of order after compaction")
		}
	})
}

func TestNextEventAt(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		if _, ok := e.NextEventAt(); ok {
			t.Fatal("NextEventAt reported an event on an empty engine")
		}
		ev := e.Schedule(3, func() {})
		e.Schedule(7, func() {})
		if at, ok := e.NextEventAt(); !ok || at != 3 {
			t.Fatalf("NextEventAt = %v,%v, want 3,true", at, ok)
		}
		ev.Cancel()
		if at, ok := e.NextEventAt(); !ok || at != 7 {
			t.Fatalf("NextEventAt after cancel = %v,%v, want 7,true", at, ok)
		}
		if e.Pending() != 1 {
			t.Fatalf("peek did not retire cancelled head: Pending = %d", e.Pending())
		}
	})
}

func TestStatsCounters(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	ev := e.Schedule(2, func() {})
	ev.Cancel()
	s := e.Stats()
	if s.CancelledPending != 1 || s.HeapLen != 2 {
		t.Fatalf("Stats = %+v, want 1 cancelled of 2 queued", s)
	}
	e.Run()
	s = e.Stats()
	if s.Executed != 1 || s.VirtualElapsed != 1 {
		t.Fatalf("Stats after run = %+v, want Executed=1 at t=1", s)
	}
	if s.WallPerVirtualSecond() <= 0 {
		t.Fatal("WallPerVirtualSecond must be positive once the clock advanced")
	}
	if s.FreeListLen == 0 {
		t.Fatal("fired and retired nodes must land on the free list")
	}
}

// TestFreeListReuse pins the allocation-free property: a steady
// schedule/fire cycle must reuse nodes instead of growing the free list.
func TestFreeListReuse(t *testing.T) {
	forEachQueue(t, func(t *testing.T, e *Engine) {
		h := handlerFunc(func(int32, any) {})
		for i := 0; i < 1000; i++ {
			e.AfterEvent(0.001, h, 0, nil)
			e.Run()
		}
		if e.freeLen > 2 {
			t.Fatalf("free list grew to %d nodes under a one-event steady state", e.freeLen)
		}
	})
}

// TestWheelSlotsAllocateNothing pins that wheel slots take their storage
// from the events they hold: with the free list warm, scheduling one event
// into every bucket of the wheel and draining them allocates nothing. Each
// measured run gets an engine whose slots have never held an event, so a
// slot that grew storage of its own on first use would count.
func TestWheelSlotsAllocateNothing(t *testing.T) {
	const runs = 2
	h := handlerFunc(func(int32, any) {})
	engines := make([]*Engine, runs+1) // AllocsPerRun adds one warm-up run
	for i := range engines {
		e := NewEngine()
		// Warm the free list and the drain buffer through one bucket.
		for j := 0; j < wheelBuckets; j++ {
			e.AfterEvent(0, h, 0, nil)
		}
		e.Run()
		engines[i] = e
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		e := engines[next]
		next++
		for b := 0; b < wheelBuckets; b++ {
			e.AfterEvent((float64(b)+0.5)/wheelTickInv, h, 0, nil)
		}
		if e.wheelLen != wheelBuckets {
			t.Fatalf("wheel holds %d events, want one in each of its %d buckets", e.wheelLen, wheelBuckets)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("scheduling into every wheel bucket allocates %v per pass, want 0", allocs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Stream("x")
	b := NewRNG(42).Stream("x")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed+stream diverged")
		}
	}
	c := NewRNG(42).Stream("y")
	d := NewRNG(42).Stream("x")
	same := true
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different streams produced identical output")
	}
}

func TestRNGSample(t *testing.T) {
	r := NewRNG(7)
	s := r.SampleInts(10, 4)
	if len(s) != 4 {
		t.Fatalf("len = %d, want 4", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		seen[v] = true
	}
	if got := r.SampleInts(3, 99); len(got) != 3 {
		t.Fatalf("oversample len = %d, want 3", len(got))
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(5, 200)
		if v < 5 || v >= 200 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}
