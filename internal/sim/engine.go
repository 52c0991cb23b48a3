// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a queue of scheduled events.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), which makes runs
// reproducible for a fixed seed and schedule.
//
// The hot path is allocation-free: event nodes come from an engine-local
// free list (refilled a chunk of nodes at a time) and are recycled when they
// fire or are retired after cancellation, and the typed-event API
// (ScheduleEvent/AfterEvent plus the Handler interface) lets schedulers
// dispatch without per-event closures. Near-future events live in a
// bucketed timer wheel whose slots are lists linked through the nodes
// themselves; only events beyond the wheel horizon fall back to a binary
// heap. Both structures order events by exactly the same (time, sequence)
// key, so the wheel engine executes bit-for-bit the same schedule as the
// classic heap engine (see equivalence_test.go).
//
// All of the overlay protocols and the network emulator in this repository
// run on top of a single Engine per experiment. Nothing in the engine is
// goroutine-safe by design: one experiment is one single-threaded event loop,
// which is both faster and reproducible. Parallelism across experiments is
// achieved by running independent engines.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Time is a point in virtual time, measured in seconds from the start of the
// simulation. A float64 gives sub-microsecond resolution over the hour-long
// horizons used here while keeping rate arithmetic (bytes/sec) simple.
type Time float64

// Duration is a span of virtual time in seconds. Negative durations passed
// to After/AfterEvent clamp to zero (the event fires at Now, after the
// currently executing event); NaN durations and NaN or past schedule times
// panic rather than silently corrupting the queue — see Schedule.
type Duration = float64

func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Forever is a time later than any event the engine will ever execute.
const Forever Time = Time(math.MaxFloat64)

// Handler receives typed events. Schedulers that fire many events implement
// Handler once per component and dispatch on kind, which avoids allocating a
// closure per scheduled event; kind values are private to each target.
type Handler interface {
	OnEvent(kind int32, payload any)
}

// Event is one scheduled-event node. Nodes are owned by the engine and
// recycled through a free list after they fire or are retired; external
// holders keep an EventRef, never a bare *Event.
type Event struct {
	at  Time
	seq uint64
	gen uint64 // bumped on every recycle; validates EventRefs
	eng *Engine

	fn      func() // closure events; nil for typed events
	target  Handler
	kind    int32
	where   uint8 // placement | the cancelled flag
	payload any

	// next links the node into the free list while it is free and into its
	// wheel slot while it waits there (where says which); it is nil while
	// the node sits in the heap or the drain buffer.
	next *Event
}

// Node placement states; eventCancelled is OR'ed onto the placement, which
// a cancelled event keeps until the queue lazily retires it.
const (
	eventFree uint8 = iota
	eventInHeap
	eventInWheel
	eventInCur
	eventCancelled uint8 = 0x80
)

func (ev *Event) cancelled() bool { return ev.where&eventCancelled != 0 }

// EventRef is a cancellable handle to a scheduled event. It is a small
// value (no allocation) and is safe to hold after the event has fired or
// been cancelled: the generation counter makes operations on a recycled
// node no-ops, so a stale Cancel can never hit an unrelated event that
// happens to reuse the same node. The zero EventRef is inert.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Pending reports whether the event is still scheduled to fire.
func (r EventRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && !r.ev.cancelled()
}

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-cancelled, or zero reference is a no-op.
func (r EventRef) Cancel() {
	ev := r.ev
	if ev == nil || ev.gen != r.gen || ev.cancelled() {
		return
	}
	ev.fn = nil // release references now; the queue slot may linger
	ev.target = nil
	ev.payload = nil
	ev.where |= eventCancelled
	ev.eng.cancelledPending++
	ev.eng.maybeCompact()
}

// Cancelled reports whether the referenced event was cancelled and has not
// yet been retired by the queue. Stale references report false.
func (r EventRef) Cancelled() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.cancelled()
}

// QueueKind selects the engine's event-queue implementation.
type QueueKind int

const (
	// QueueWheel is the default: a bucketed timer wheel for near-future
	// events with a binary-heap overflow for events beyond the horizon.
	QueueWheel QueueKind = iota
	// QueueHeap is the classic single binary heap — the pre-wheel engine,
	// kept as the equivalence oracle and for benchmarks.
	QueueHeap
)

// Timer-wheel geometry. Each bucket spans 1/wheelTickInv seconds and the
// wheel covers wheelBuckets of them (an ~8 s horizon): RTTs, transfer
// completions, recompute intervals, and protocol periods all land in the
// wheel, while run deadlines and other far-future events overflow to the
// binary heap.
const (
	wheelTickInv = 1024.0 // buckets per virtual second (tick = ~0.98 ms)
	wheelBuckets = 8192   // must be a power of two
	wheelMask    = wheelBuckets - 1

	// maxBucketTime guards the int64 bucket arithmetic: times at or above
	// it (Forever, +Inf, multi-year deadlines) go straight to the heap.
	maxBucketTime = 1e12
)

func bucketOf(t Time) int64 { return int64(float64(t) * wheelTickInv) }

// nodeChunk is how many event nodes one free-list miss allocates at once.
const nodeChunk = 256

// eventList is a wheel slot: a FIFO of events linked through Event.next.
type eventList struct{ head, tail *Event }

func (l *eventList) push(ev *Event) {
	ev.next = nil
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine (timer-wheel queue) or NewEngineWithQueue.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	queue   QueueKind

	// Overflow heap ordered by (at, seq); the only queue in QueueHeap mode.
	heap []*Event

	// Timer wheel: slots accumulate unsorted events per bucket, linked
	// through Event.next, and occ is the slot-occupancy bitmap. cur is the sorted drain buffer holding
	// bucket curBucket (-1 when unloaded), consumed from curIdx.
	slots     []eventList
	occ       []uint64
	wheelLen  int
	cur       []*Event
	curIdx    int
	curBucket int64

	free    *Event
	freeLen int
	chunk   []Event // nodes not yet handed out, carved on free-list misses

	cancelledPending int
	wallStart        time.Time

	// Executed counts events that actually fired (not cancelled ones).
	Executed uint64
	// Compactions counts lazy queue compactions (see maybeCompact).
	Compactions uint64
}

// NewEngine returns a timer-wheel engine with the clock at zero.
func NewEngine() *Engine { return NewEngineWithQueue(QueueWheel) }

// NewEngineWithQueue returns an engine using the given queue implementation.
// Both kinds execute identical schedules in identical order; QueueHeap is
// retained as the equivalence oracle.
func NewEngineWithQueue(q QueueKind) *Engine {
	e := &Engine{queue: q, curBucket: -1, wallStart: time.Now()}
	if q == QueueWheel {
		e.slots = make([]eventList, wheelBuckets)
		e.occ = make([]uint64, wheelBuckets/64)
	}
	return e
}

// Stats is a snapshot of the engine's health counters, for long-run
// instrumentation: event throughput, cancelled-event occupancy of the queue,
// and the wall-time cost of each virtual second.
type Stats struct {
	Executed         uint64        // events that fired
	HeapLen          int           // events still queued, cancelled included
	CancelledPending int           // cancelled events still occupying the queue
	Compactions      uint64        // lazy compaction passes performed
	FreeListLen      int           // recycled event nodes awaiting reuse
	VirtualElapsed   Time          // current virtual clock
	WallElapsed      time.Duration // wall time since NewEngine
}

// WallPerVirtualSecond returns wall seconds spent per virtual second, the
// emulator's fundamental cost metric (0 until the clock advances).
func (s Stats) WallPerVirtualSecond() float64 {
	if s.VirtualElapsed <= 0 {
		return 0
	}
	return s.WallElapsed.Seconds() / float64(s.VirtualElapsed)
}

// Stats returns a snapshot of the engine's instrumentation counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Executed:         e.Executed,
		HeapLen:          e.Pending(),
		CancelledPending: e.cancelledPending,
		Compactions:      e.Compactions,
		FreeListLen:      e.freeLen,
		VirtualElapsed:   e.now,
		WallElapsed:      time.Since(e.wallStart),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events in the queue, including cancelled
// events that have not been retired yet.
func (e *Engine) Pending() int {
	return len(e.heap) + e.wheelLen + (len(e.cur) - e.curIdx)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// newNode takes a node from the free list (or carves one from the current
// chunk, allocating a new chunk when that is used up) and stamps the
// ordering key.
func (e *Engine) newNode(at Time) *Event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		e.freeLen--
		ev.next = nil
	} else {
		if len(e.chunk) == 0 {
			e.chunk = make([]Event, nodeChunk)
		}
		ev = &e.chunk[0]
		e.chunk = e.chunk[1:]
		ev.eng = e
	}
	e.seq++
	ev.at = at
	ev.seq = e.seq
	return ev
}

// recycle retires a node: its generation is bumped so outstanding EventRefs
// go stale, its references are dropped, and it joins the free list.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.target = nil
	ev.payload = nil
	ev.where = eventFree
	ev.next = e.free
	e.free = ev
	e.freeLen++
}

// checkAt validates a schedule time. NaN virtual times would silently
// corrupt the queue's ordering (and the wheel's bucket arithmetic), so they
// panic, as does scheduling before Now, which would corrupt causality.
func (e *Engine) checkAt(at Time) {
	if math.IsNaN(float64(at)) {
		panic("sim: schedule at NaN")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
}

// Schedule runs fn at the given absolute virtual time. Scheduling in the
// past (before Now) or at NaN panics. The returned EventRef cancels the
// event; it may be discarded.
//
// Schedule allocates nothing beyond the caller's closure; schedulers on the
// hot path should prefer ScheduleEvent, which needs no closure at all.
func (e *Engine) Schedule(at Time, fn func()) EventRef {
	e.checkAt(at)
	ev := e.newNode(at)
	ev.fn = fn
	e.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// ScheduleEvent runs target.OnEvent(kind, payload) at the given absolute
// virtual time. It is the allocation-free form of Schedule: the event node
// comes from the engine's free list, and a pointer (or nil) payload is
// stored without allocating.
func (e *Engine) ScheduleEvent(at Time, target Handler, kind int32, payload any) EventRef {
	e.checkAt(at)
	if target == nil {
		panic("sim: ScheduleEvent with nil target")
	}
	ev := e.newNode(at)
	ev.target = target
	ev.kind = kind
	ev.payload = payload
	e.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// Dispatch executes target.OnEvent(kind, payload) immediately, advancing
// the clock to at. It is the delivery half of Shard.Post: a timestamped
// event that arrived from another shard's engine is injected
// here without ever entering this engine's queue, so it costs no node and
// participates in Executed accounting like any local event. Dispatching
// before Now or at NaN panics, same as scheduling.
func (e *Engine) Dispatch(at Time, target Handler, kind int32, payload any) {
	e.checkAt(at)
	if target == nil {
		panic("sim: Dispatch with nil target")
	}
	e.now = at
	e.Executed++
	target.OnEvent(kind, payload)
}

// After runs fn after d seconds of virtual time. Negative delays (including
// -Inf) clamp to 0; NaN panics.
func (e *Engine) After(d Duration, fn func()) EventRef {
	return e.Schedule(e.now+Time(clampDelay(d)), fn)
}

// AfterEvent runs target.OnEvent(kind, payload) after d seconds of virtual
// time, with the same delay rules as After.
func (e *Engine) AfterEvent(d Duration, target Handler, kind int32, payload any) EventRef {
	return e.ScheduleEvent(e.now+Time(clampDelay(d)), target, kind, payload)
}

// clampDelay defines delay edge cases in one place: negative delays
// (including -Inf) clamp to zero and NaN panics. +Inf passes through,
// scheduling effectively at Forever.
func clampDelay(d Duration) Duration {
	if math.IsNaN(d) {
		panic("sim: schedule after NaN duration")
	}
	if d < 0 {
		return 0
	}
	return d
}

// push inserts a live node into the queue.
func (e *Engine) push(ev *Event) {
	if e.queue == QueueHeap || float64(ev.at) >= maxBucketTime {
		e.heapPush(ev)
		return
	}
	b := bucketOf(ev.at)
	if b-bucketOf(e.now) >= wheelBuckets {
		e.heapPush(ev)
		return
	}
	if e.curBucket >= 0 && b < e.curBucket {
		// Earlier than the loaded drain bucket: put cur back so the next
		// peek reloads from the true earliest bucket.
		e.unloadCur()
	}
	if b == e.curBucket {
		// Insert into the sorted drain buffer. The new node carries the
		// globally largest seq, so its position is the upper bound of its
		// timestamp; everything already drained sorts strictly before it.
		i, j := e.curIdx, len(e.cur)
		for i < j {
			m := int(uint(i+j) >> 1)
			if e.cur[m].at <= ev.at {
				i = m + 1
			} else {
				j = m
			}
		}
		ev.where = eventInCur
		e.cur = append(e.cur, nil)
		copy(e.cur[i+1:], e.cur[i:])
		e.cur[i] = ev
		return
	}
	slot := b & wheelMask
	ev.where = eventInWheel
	e.slots[slot].push(ev)
	e.occ[slot>>6] |= 1 << (slot & 63)
	e.wheelLen++
}

// --- binary heap (overflow + QueueHeap mode) -------------------------------

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *Event) {
	ev.where = eventInHeap
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *Engine) heapPop() *Event {
	h := e.heap
	n := len(h)
	top := h[0]
	h[0] = h[n-1]
	h[n-1] = nil
	e.heap = h[:n-1]
	if n > 1 {
		e.heapSiftDown(0)
	}
	return top
}

func (e *Engine) heapSiftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(h[l], h[small]) {
			small = l
		}
		if r < n && eventLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// heapTop returns the live heap minimum, lazily retiring cancelled tops.
func (e *Engine) heapTop() *Event {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if !top.cancelled() {
			return top
		}
		e.heapPop()
		e.cancelledPending--
		e.recycle(top)
	}
	return nil
}

// --- timer wheel -----------------------------------------------------------

// unloadCur returns the undrained remainder of the drain buffer to its slot
// (used when an insert lands before the loaded bucket).
func (e *Engine) unloadCur() {
	slot := e.curBucket & wheelMask
	for _, ev := range e.cur[e.curIdx:] {
		ev.where = eventInWheel | (ev.where & eventCancelled)
		e.slots[slot].push(ev)
		e.wheelLen++
	}
	if e.slots[slot].head != nil {
		e.occ[slot>>6] |= 1 << (slot & 63)
	}
	e.cur = e.cur[:0]
	e.curIdx = 0
	e.curBucket = -1
}

// loadNextBucket moves the earliest non-empty slot into the sorted drain
// buffer; the caller guarantees wheelLen > 0. Every pending wheel bucket
// lies in [bucketOf(now), bucketOf(now)+wheelBuckets) — an event is only
// placed in the wheel when its bucket is within that window of the clock,
// and the clock never moves past a pending event — so scanning the
// occupancy bitmap in ring order from bucketOf(now) visits slots in strict
// bucket order.
func (e *Engine) loadNextBucket() {
	start := bucketOf(e.now)
	for off := int64(0); off < wheelBuckets; off++ {
		slot := (start + off) & wheelMask
		w := e.occ[slot>>6] >> (slot & 63)
		if w == 0 {
			// Nothing set at or above this slot within its word: skip to
			// the word boundary.
			off += 63 - (slot & 63)
			continue
		}
		if skip := int64(bits.TrailingZeros64(w)); skip > 0 {
			off += skip - 1 // the loop increment adds the final step
			continue
		}
		e.cur = e.cur[:0]
		for ev := e.slots[slot].head; ev != nil; {
			next := ev.next
			ev.next = nil
			ev.where = eventInCur | (ev.where & eventCancelled)
			e.cur = append(e.cur, ev)
			ev = next
		}
		e.slots[slot] = eventList{}
		e.occ[slot>>6] &^= 1 << (slot & 63)
		e.wheelLen -= len(e.cur)
		e.curIdx = 0
		e.curBucket = start + off
		slices.SortFunc(e.cur, compareEvents)
		return
	}
	panic("sim: wheel count positive but no occupied slot")
}

func compareEvents(a, b *Event) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.seq < b.seq:
		return -1
	default:
		return 1
	}
}

// wheelHead returns the live wheel minimum without removing it, lazily
// retiring cancelled events at the head of the drain buffer.
func (e *Engine) wheelHead() *Event {
	for {
		for e.curIdx < len(e.cur) {
			ev := e.cur[e.curIdx]
			if !ev.cancelled() {
				return ev
			}
			e.cur[e.curIdx] = nil
			e.curIdx++
			e.cancelledPending--
			e.recycle(ev)
		}
		if len(e.cur) > 0 {
			e.cur = e.cur[:0]
			e.curIdx = 0
		}
		e.curBucket = -1
		if e.wheelLen == 0 {
			return nil
		}
		e.loadNextBucket()
	}
}

// peek returns the next live event without removing it, or nil. Cancelled
// events encountered on the way are retired.
func (e *Engine) peek() *Event {
	if e.queue == QueueHeap {
		return e.heapTop()
	}
	w := e.wheelHead()
	h := e.heapTop()
	switch {
	case w == nil:
		return h
	case h == nil:
		return w
	case eventLess(h, w):
		return h
	default:
		return w
	}
}

// pop removes the event a prior peek returned.
func (e *Engine) pop(ev *Event) {
	if ev.where == eventInCur {
		// peek guarantees ev is cur[curIdx].
		e.cur[e.curIdx] = nil
		e.curIdx++
		return
	}
	e.heapPop()
}

// compactMin is the queue size below which compaction is never worth it.
const compactMin = 1024

// maybeCompact rebuilds the queue without cancelled events once they occupy
// more than half of a large queue. Without this, churn-heavy runs (every
// recomputation cancels and reschedules completions) accumulate dead events
// faster than pops retire them, and queue operations degrade.
func (e *Engine) maybeCompact() {
	if e.Pending() < compactMin || e.cancelledPending*2 <= e.Pending() {
		return
	}
	// Heap: filter, then re-heapify.
	kept := e.heap[:0]
	for _, ev := range e.heap {
		if ev.cancelled() {
			e.cancelledPending--
			e.recycle(ev)
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(e.heap); i++ {
		e.heap[i] = nil
	}
	e.heap = kept
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.heapSiftDown(i)
	}
	// Wheel slots: relink each occupied slot's live events in place. next
	// is read before recycle, which overwrites it with the free-list link.
	if e.wheelLen > 0 {
		for slot := range e.slots {
			ev := e.slots[slot].head
			if ev == nil {
				continue
			}
			var live eventList
			for ev != nil {
				next := ev.next
				if ev.cancelled() {
					e.cancelledPending--
					e.wheelLen--
					e.recycle(ev)
				} else {
					live.push(ev)
				}
				ev = next
			}
			e.slots[slot] = live
			if live.head == nil {
				e.occ[slot>>6] &^= 1 << (slot & 63)
			}
		}
	}
	// Drain buffer: filter the undrained tail in place, preserving order.
	if e.curIdx < len(e.cur) {
		live := e.cur[:e.curIdx]
		for _, ev := range e.cur[e.curIdx:] {
			if ev.cancelled() {
				e.cancelledPending--
				e.recycle(ev)
				continue
			}
			live = append(live, ev)
		}
		for i := len(live); i < len(e.cur); i++ {
			e.cur[i] = nil
		}
		e.cur = live
	}
	e.Compactions++
}

// fire executes a popped live event. The node is recycled before the
// callback runs, so a handler that immediately reschedules reuses the same
// hot node.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	e.Executed++
	fn, target, kind, payload := ev.fn, ev.target, ev.kind, ev.payload
	e.recycle(ev)
	if fn != nil {
		fn()
		return
	}
	target.OnEvent(kind, payload)
}

// Step executes the single next non-cancelled event. It returns false when
// the queue is empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.pop(ev)
	e.fire(ev)
	return true
}

// NextEventAt returns the timestamp of the next live event, or false when
// the queue is empty. Cancelled events encountered while peeking are
// retired.
func (e *Engine) NextEventAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline. The clock is advanced
// to deadline if the queue drains earlier. It returns the number of events
// executed.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.Executed
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		e.pop(ev)
		e.fire(ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.Executed - start
}
