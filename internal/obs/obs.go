// Package obs is the unified observability plane's leaf layer: structured
// event tracing (typed protocol-decision spans in a bounded ring, exportable
// as JSONL and Chrome trace_event JSON), the layer counter block every
// sample carries, and a small metrics registry that renders run metrics as
// Prometheus text-format or JSON.
//
// Tracing is strictly read-only over the simulation: call sites record what
// a protocol decided (a sender trimmed, a rechoke round, a testbed
// retransmit) but never steer it, so a traced run stays bit-identical to an
// untraced one. A Tracer is single-goroutine — each engine (or shard) owns
// one — and per-shard tracers merge deterministically in (At, shard, Seq)
// order after the run (see Tracer.Absorb and DESIGN.md §12).
package obs

import "sort"

// DefaultCapacity is the span ring's bound when a Tracer is built with
// capacity <= 0.
const DefaultCapacity = 16384

// LayerCounters is the layers' cumulative work on one run: what the
// engines, the emulated network and the message runtime have done so far,
// summed over shards in shard order. It is declared here once; a rig's
// counter reading and every sample carry it.
type LayerCounters struct {
	// Events and Compactions are the engines' executed events and lazy
	// queue compactions.
	Events, Compactions uint64
	// Recomputes counts fair-share recomputations; RatesRecomputed and
	// RatesSkipped count the flow rates they assigned and left alone, and
	// RatesReused those of the assigned rates a reused fill supplied.
	Recomputes, RatesRecomputed, RatesSkipped, RatesReused uint64
	// BytesServed is the payload the network's flows fully serialized.
	BytesServed float64
	// Messages counts messages the runtime delivered.
	Messages uint64
}

// Span is one recorded protocol decision: what happened (Kind), when (At),
// where (Node, and the Peer it concerned) and a short free-form Note. It is
// declared here once; the façade's TraceSpan is this type.
type Span struct {
	// At is the virtual time of the decision in seconds.
	At float64 `json:"at"`
	// Kind is the decision type ("trim", "promote", "rechoke", "reconcile",
	// "rebuffer", "retransmit", ...).
	Kind string `json:"kind"`
	// Node is the deciding node's topology address; Peer is the other party
	// (-1 when the decision has none).
	Node int `json:"node"`
	Peer int `json:"peer"`
	// Note is a short human-readable detail string.
	Note string `json:"note,omitempty"`
	// Seq is the span's record order within its tracer: the tiebreak that
	// keeps same-instant spans (and the cross-shard merge) deterministic.
	// Spans reports it counted from the oldest span still held.
	Seq uint64 `json:"seq"`
}

// Tracer records spans into a bounded ring, dropping the oldest span when
// full — a trace never grows a run's memory without bound. All methods must
// be called from one goroutine (the engine or shard that owns the tracer);
// merge per-shard tracers with Absorb after their run finishes.
type Tracer struct {
	capacity int
	ring     []Span
	start    int // index of the oldest live span
	n        int
	seq      uint64
	dropped  uint64
	counts   map[string]uint64
}

// NewTracer returns a tracer bounded at the given span capacity;
// capacity <= 0 picks DefaultCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		capacity: capacity,
		counts:   make(map[string]uint64),
	}
}

// Capacity returns the ring bound.
func (t *Tracer) Capacity() int { return t.capacity }

// Record appends one span, evicting the oldest when the ring is full. Kind
// counts always accumulate, evicted or not.
func (t *Tracer) Record(at float64, kind string, node, peer int, note string) {
	t.counts[kind]++
	t.push(Span{At: at, Kind: kind, Node: node, Peer: peer, Note: note})
}

// push inserts one span into the ring, re-sequencing it in this tracer's
// record order and evicting the oldest span when full.
func (t *Tracer) push(s Span) {
	s.Seq = t.seq
	t.seq++
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, s)
		t.n++
		return
	}
	// Full: overwrite the oldest slot.
	t.ring[t.start] = s
	t.start = (t.start + 1) % t.capacity
	t.dropped++
}

// Len returns the number of spans currently held.
func (t *Tracer) Len() int { return t.n }

// Dropped counts spans evicted because the ring filled.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Counts returns a copy of the per-kind span totals (evictions included).
func (t *Tracer) Counts() map[string]uint64 {
	out := make(map[string]uint64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// Spans returns the held spans oldest-first, as a copy, with Seq counting
// from 0: an export's seq is a span's position in it, whether or not the
// ring evicted anything before.
func (t *Tracer) Spans() []Span {
	out := make([]Span, 0, t.n)
	for i := 0; i < t.n; i++ {
		s := t.ring[(t.start+i)%len(t.ring)]
		s.Seq = uint64(i)
		out = append(out, s)
	}
	return out
}

// Absorb merges the spans of per-shard tracers into t in deterministic
// (At, shard index, Seq) order — the same total order the sharded engine's
// cross-event merge uses, so a parallel run's trace is a pure function of
// (seed, shard count), never of worker interleaving. Kind counts and drop
// totals fold in; absorbed spans are re-sequenced in merge order.
func (t *Tracer) Absorb(shards ...*Tracer) {
	type tagged struct {
		span  Span
		shard int
	}
	var all []tagged
	for k, st := range shards {
		if st == nil {
			continue
		}
		for _, s := range st.Spans() {
			all = append(all, tagged{span: s, shard: k})
		}
		t.dropped += st.dropped
		for kind, c := range st.counts {
			t.counts[kind] += c
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.span.At != b.span.At {
			return a.span.At < b.span.At
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.span.Seq < b.span.Seq
	})
	for _, x := range all {
		t.push(x.span)
	}
}
