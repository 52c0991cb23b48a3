// Conservative parallel discrete-event simulation over sharded engines.
//
// A Group runs K independent Engines ("shards") against one virtual
// timeline in lockstep windows. Every cross-shard interaction is a Post
// stamped with a delivery time at least lookahead after the sender's Now(),
// so an event executed in the window [now, now+lookahead) can only post
// deliveries at or beyond the window's end. Each window therefore lets every
// shard execute its events strictly below now+lookahead without hearing from
// any peer; between windows, on the calling goroutine, the group moves the
// events posted during the window into their destinations' pending heaps.
// Shards meet only between windows, so nothing here needs atomics.
//
// Each shard merges its local events with its pending cross events by the
// total key (at, origin, seq), so the executed sequence per shard is a pure
// function of the inputs: it does not depend on how windows are partitioned,
// and running the shards one per goroutine is bit-identical to running them
// in turn on one goroutine. See DESIGN.md §9 for the full argument.
package sim

import (
	"fmt"
	"math"
)

// Group couples a set of shard engines into one simulation advanced in
// lockstep windows of lookahead.
type Group struct {
	shards    []*Shard
	lookahead float64
	// now is the group's clock: every event strictly below it has executed
	// on every shard, and no cross event still to be exchanged is due
	// below it.
	now Time
}

// Shard is one engine's seat in a Group: its outbound events of the current
// window, its pending inbound cross events, and the handler that receives
// them. All methods must be called from the shard's own execution context.
type Shard struct {
	id  int32
	g   *Group
	eng *Engine

	out     [][]crossEvent // posted this window, indexed by destination shard id
	pending crossHeap      // exchanged but not yet executed cross events
	handler Handler        // receiver for cross events
	sendSeq uint64         // per-origin sequence, assigned in execution order

	// Posted and CrossExecuted count outbound posts and executed inbound
	// cross events. Both are deterministic for a given (inputs, K).
	Posted        uint64
	CrossExecuted uint64
}

// NewGroup builds a shard group over the given engines. Each engine must be
// fresh to the group (one seat per engine). lookahead is the minimum virtual
// latency of any cross-shard event, in the same unit as Time; it must be
// positive and finite — it is both the window length and the floor Post
// enforces on delivery times.
func NewGroup(engines []*Engine, lookahead float64) *Group {
	// Configuration cannot reach these panics: harness.PlanShards refuses such topologies.
	if len(engines) == 0 {
		panic("sim: NewGroup with no engines")
	}
	if math.IsNaN(lookahead) || math.IsInf(lookahead, 0) || lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewGroup lookahead %v must be positive and finite", lookahead))
	}
	g := &Group{lookahead: lookahead, shards: make([]*Shard, len(engines))}
	for i, eng := range engines {
		if eng == nil {
			panic("sim: NewGroup with nil engine")
		}
		g.shards[i] = &Shard{id: int32(i), g: g, eng: eng, out: make([][]crossEvent, len(engines))}
	}
	return g
}

// Shard returns the i-th shard.
func (g *Group) Shard(i int) *Shard { return g.shards[i] }

// Lookahead returns the group's lookahead.
func (g *Group) Lookahead() float64 { return g.lookahead }

// Now returns the group's clock: the horizon of the last completed Run, or
// where a stopped Run wound down.
func (g *Group) Now() Time { return g.now }

// ID returns the shard's index within its group.
func (s *Shard) ID() int { return int(s.id) }

// Engine returns the shard's engine.
func (s *Shard) Engine() *Engine { return s.eng }

// SetHandler installs the handler that receives all cross-shard events
// posted to this shard. It must be set before Run if any peer posts here.
func (s *Shard) SetHandler(h Handler) { s.handler = h }

// Post sends a cross-shard event for delivery to shard dst at virtual time
// at. It must be called from within this shard's own event execution.
// Delivery must respect the group's lookahead: at >= Now() + lookahead, or
// the event could be due inside the window that posts it — violations
// panic. Posting to the own shard panics; schedule locally instead.
func (s *Shard) Post(dst int, at Time, kind int32, payload any) {
	if dst == int(s.id) {
		panic("sim: Post to own shard; use ScheduleEvent")
	}
	if math.IsNaN(float64(at)) {
		panic("sim: Post at NaN")
	}
	if floor := s.eng.Now() + Time(s.g.lookahead); at < floor {
		panic(fmt.Sprintf("sim: Post at %v violates lookahead floor %v (now %v + lookahead %v)",
			at, floor, s.eng.Now(), s.g.lookahead))
	}
	s.sendSeq++
	s.Posted++
	s.out[dst] = append(s.out[dst], crossEvent{
		at: at, origin: s.id, kind: kind, seq: s.sendSeq, payload: payload,
	})
}

// execute runs the merged stream of local engine events and pending cross
// events with timestamps below limit (or equal, when inclusive). The merge
// key is (at, origin, seq) with the local engine acting as origin == own
// id: local events keep their engine (at, seq) order, cross events keep
// per-origin FIFO order, and ties at equal timestamps break on origin id.
// Since origins are distinct, the order is total and independent of window
// partitioning.
func (s *Shard) execute(limit Time, inclusive bool) {
	eng := s.eng
	for {
		lev := eng.peek()
		hasCross := len(s.pending) > 0
		var pickLocal bool
		switch {
		case lev == nil && !hasCross:
			return
		case lev == nil:
			pickLocal = false
		case !hasCross:
			pickLocal = true
		default:
			ce := s.pending[0]
			if lev.at != ce.at {
				pickLocal = lev.at < ce.at
			} else {
				pickLocal = s.id < ce.origin
			}
		}
		if pickLocal {
			if lev.at > limit || (!inclusive && lev.at == limit) {
				return
			}
			eng.pop(lev)
			eng.fire(lev)
		} else {
			ce := s.pending[0]
			if ce.at > limit || (!inclusive && ce.at == limit) {
				return
			}
			s.pending.pop()
			s.CrossExecuted++
			eng.Dispatch(ce.at, s.handler, ce.kind, ce.payload)
		}
	}
}

// exchange moves every cross event posted since the last exchange into its
// destination's pending heap. It runs between windows, when no shard is
// executing. Heap order is the total merge key, so the order in which
// senders are visited does not matter.
func (g *Group) exchange() {
	for _, s := range g.shards {
		for dst, evs := range s.out {
			for _, e := range evs {
				g.shards[dst].pending.push(e)
			}
			clear(evs) // drop payload references
			s.out[dst] = evs[:0]
		}
	}
}

// Run advances every shard to horizon, executing all events with timestamps
// <= horizon exactly once across the group. Each pass polls stop, exchanges
// the last window's cross events, and has every shard execute strictly
// below limit = min(now + lookahead, horizon); after the last window an
// inclusive pass at horizon delivers what peers posted for exactly horizon.
//
// workers selects the execution mode: 1 runs each window's shards in turn
// on the calling goroutine (the deterministic oracle mode); any other value
// runs each shard on its own goroutine for the length of the call. Both
// modes execute the identical event sequence per shard, and a panic on a
// shard is re-raised on the caller. stop, if non-nil, is polled on the
// caller between windows; when it reports true Run returns true, leaving
// the group in a consistent but incomplete state.
//
// Run may be called again with a larger horizon to continue the same
// simulation.
func (g *Group) Run(horizon Time, workers int, stop func() bool) bool {
	if math.IsNaN(float64(horizon)) {
		panic("sim: Run to NaN horizon")
	}
	window := g.executeInTurn
	if workers != 1 && g.now < horizon {
		c := g.startCrew()
		defer c.stop()
		window = c.execute
	}
	for g.now < horizon {
		if stop != nil && stop() {
			return true
		}
		g.exchange()
		limit := min(g.now+Time(g.lookahead), horizon)
		window(limit)
		g.now = limit
	}
	g.exchange()
	for _, s := range g.shards {
		s.execute(horizon, true)
		s.eng.RunUntil(horizon) // cascades at exactly horizon, then clock lands on horizon
	}
	return false
}

// executeInTurn runs one window's shards one after another on the caller.
func (g *Group) executeInTurn(limit Time) {
	for _, s := range g.shards {
		s.execute(limit, false)
	}
}

// crew is one goroutine per shard for the length of a Run call: each takes
// window limits from its own channel and answers on done with the panic it
// recovered, or nil; once its channel closes it sends a last nil and exits.
type crew struct {
	windows []chan Time
	done    chan any
}

func (g *Group) startCrew() *crew {
	c := &crew{windows: make([]chan Time, len(g.shards)), done: make(chan any, len(g.shards))}
	for i, s := range g.shards {
		c.windows[i] = make(chan Time)
		go func(s *Shard, windows <-chan Time) {
			for limit := range windows {
				c.done <- s.executeRecovered(limit)
			}
			c.done <- nil
		}(s, c.windows[i])
	}
	return c
}

// execute runs one window on every shard at once and waits for all of
// them; the first panic recovered is re-raised on the caller.
func (c *crew) execute(limit Time) {
	for _, w := range c.windows {
		w <- limit
	}
	var first any
	for range c.windows {
		if p := <-c.done; p != nil && first == nil {
			first = p
		}
	}
	if first != nil {
		panic(first)
	}
}

// stop ends the crew and returns once every goroutine has exited.
func (c *crew) stop() {
	for _, w := range c.windows {
		close(w)
	}
	for range c.windows {
		<-c.done
	}
}

// executeRecovered is execute for a crew goroutine: a panic comes back as
// a value for the caller to re-raise.
func (s *Shard) executeRecovered(limit Time) (p any) {
	defer func() { p = recover() }()
	s.execute(limit, false)
	return nil
}

// crossEvent is one cross-shard event in flight: a typed event stamped with
// its delivery time and a deterministic total-order key (origin shard id,
// per-origin send sequence). The key is assigned by the sender's
// single-threaded event loop, so it is independent of goroutine
// interleaving; receivers merge cross events with their local queue by
// (at, origin, seq).
type crossEvent struct {
	at      Time
	origin  int32
	kind    int32
	seq     uint64
	payload any
}

// crossHeap is a min-heap of pending cross events ordered by the global
// merge key (at, origin, seq): delivery time first, then origin shard id,
// then the origin's send sequence. The key is strictly total — one origin
// never reuses a sequence number — so heap order is deterministic.
type crossHeap []crossEvent

func crossLess(a, b crossEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

func (h *crossHeap) push(e crossEvent) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !crossLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *crossHeap) pop() crossEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = crossEvent{}
	s = s[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && crossLess(s[l], s[small]) {
			small = l
		}
		if r < n && crossLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return top
}
