package ransub

import (
	"testing"

	"bulletprime/internal/proto"
)

func TestCandidateWireScalesWithCount(t *testing.T) {
	w0 := candidateWire(0)
	w1 := candidateWire(1)
	w10 := candidateWire(10)
	if w0 <= 0 {
		t.Fatal("empty message has no framing cost")
	}
	per := w1 - w0
	if per < (&proto.Summary{}).WireSize() {
		t.Fatalf("per-candidate cost %v smaller than a summary", per)
	}
	if got := w10 - w0; got < 9*per || got > 11*per {
		t.Fatalf("10-candidate cost %v not ~10x per-candidate %v", got, per)
	}
}

func TestDefaultConstants(t *testing.T) {
	if DefaultPeriod != 5.0 {
		t.Fatalf("RanSub period %v, want the paper's 5s", DefaultPeriod)
	}
	if DefaultFanout != 10 {
		t.Fatalf("fanout %v, want 10", DefaultFanout)
	}
	if TreeDegree != 10 {
		t.Fatalf("tree degree %v, want 10", TreeDegree)
	}
	if KindDistribute < 1000 || KindCollect < 1000 {
		t.Fatal("ransub kinds must live above the protocol kind range")
	}
}

func TestMixForExcludesChildAndKeepsSelfWhenForwarding(t *testing.T) {
	r := newRig(t, 6, 1000) // huge period: no epochs fire on their own
	ag := r.agents[0]       // root
	// Give the root's first child a sample.
	ag.childSamples[0] = &setMsg{owner: r.agents[1], set: []Candidate{{ID: 3}, {ID: 4}}}
	set := ag.mixFor(3, nil, ag.own(), nil) // forwarding to child 3
	for _, c := range set {
		if c.ID == 3 {
			t.Fatal("child advertised to itself")
		}
	}
	found := false
	for _, c := range set {
		if c.ID == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("forwarding node's own candidacy missing from the forwarded set")
	}
	// Local delivery must exclude self.
	local := ag.mixFor(-1, []Candidate{{ID: 0}, {ID: 2}}, nil, nil)
	for _, c := range local {
		if c.ID == 0 {
			t.Fatal("node delivered itself as its own candidate")
		}
	}
}
