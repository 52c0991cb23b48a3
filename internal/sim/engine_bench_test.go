package sim

import (
	"fmt"
	"testing"
)

// The engine benchmarks drive a synthetic scheduler load shaped like the
// emulator's: a population of self-rescheduling timers at mixed horizons
// with a cancel/reschedule churn component (the netem completion pattern).
// BenchmarkEngineHeap vs BenchmarkEngineWheel isolates the queue structure;
// BenchmarkAllocsPerEvent asserts the allocation-free steady state that the
// CI perf gate pins.

// benchLoad is a Handler running the synthetic load on its engine.
type benchLoad struct {
	eng     *Engine
	pending []EventRef
	i       int
}

const (
	benchKindTimer int32 = iota
	benchKindChurn
)

func (l *benchLoad) OnEvent(kind int32, payload any) {
	switch kind {
	case benchKindTimer:
		// Periodic timer: reschedule at a spread of near horizons.
		d := 0.001 + float64(l.i%97)*0.0005
		l.eng.AfterEvent(d, l, benchKindTimer, nil)
	case benchKindChurn:
		// Completion churn: cancel an outstanding event and reschedule it
		// (what every fair-share recompute does to transfer completions).
		slot := l.i % len(l.pending)
		l.pending[slot].Cancel()
		l.pending[slot] = l.eng.AfterEvent(0.030, l, benchKindChurn, nil)
	}
	l.i++
}

func runEngineBench(b *testing.B, kind QueueKind) {
	e := NewEngineWithQueue(kind)
	l := &benchLoad{eng: e}
	for i := 0; i < 512; i++ {
		e.AfterEvent(float64(i)*0.0001, l, benchKindTimer, nil)
	}
	l.pending = make([]EventRef, 128)
	for i := range l.pending {
		l.pending[i] = e.AfterEvent(0.030+float64(i)*0.0002, l, benchKindChurn, nil)
	}
	// Warm the free list and drain buffer before timing.
	e.RunUntil(1)
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Executed
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	if e.Executed-start == 0 {
		b.Fatal("benchmark executed no events")
	}
}

func BenchmarkEngineHeap(b *testing.B)  { runEngineBench(b, QueueHeap) }
func BenchmarkEngineWheel(b *testing.B) { runEngineBench(b, QueueWheel) }

// BenchmarkAllocsPerEvent pins the tentpole property: once the free list is
// warm, executing events allocates nothing. The benchmark fails (not just
// reports) when the steady state allocates, so the CI perf gate catches a
// regression even before comparing against the committed baseline.
func BenchmarkAllocsPerEvent(b *testing.B) {
	e := NewEngine()
	l := &benchLoad{eng: e}
	for i := 0; i < 512; i++ {
		e.AfterEvent(float64(i)*0.0001, l, benchKindTimer, nil)
	}
	l.pending = make([]EventRef, 128)
	for i := range l.pending {
		l.pending[i] = e.AfterEvent(0.030+float64(i)*0.0002, l, benchKindChurn, nil)
	}
	e.RunUntil(1) // warm free list, drain buffer, and slot capacity
	b.ReportAllocs()
	allocs := testing.AllocsPerRun(10000, func() { e.Step() })
	b.ReportMetric(allocs, "allocs/event")
	if allocs > 0.01 {
		b.Errorf("steady-state engine allocates %.4f allocs/event, want 0", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkRNGStream is the cost of deriving one named stream — hashing the
// name and seeding math/rand's 607-word generator — which a Bullet′ session
// pays twice per peer (peer-%d, ransub-%d).
func BenchmarkRNGStream(b *testing.B) {
	master := NewRNG(1)
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("peer-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		sum += master.Stream(names[i%len(names)]).Int63()
	}
	if sum == 0 {
		b.Fatal("streams drew nothing")
	}
}
