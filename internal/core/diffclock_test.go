package core

import (
	"testing"

	"bulletprime/internal/proto"
	"bulletprime/internal/ransub"
)

// TestHeldDiffRequest walks one peering through the §3.3.4 diff clock. A
// receiver that has taken everything its sender advertised asks for a diff;
// the sender, with nothing past the receiver's cursor, holds the request
// rather than answering it empty. Its next arrival answers the held request
// at once, even with the connection to the receiver busy, which is when an
// unrequested diff would wait.
func TestHeldDiffRequest(t *testing.T) {
	r := buildRig(3, 5, nil, nil)
	sender, recv := r.sess.peers[1], r.sess.peers[2] // node 1 holds nothing yet
	recv.addSender(1)
	r.eng.RunUntil(1) // hello, the initial diff (empty), the diff request
	sp := recv.senders[0]
	if len(sender.receivers) != 1 {
		t.Fatalf("sender has %d receivers, want 1", len(sender.receivers))
	}
	rp := sender.receivers[0]
	if !sp.diffReqPending || !rp.held {
		t.Fatalf("after the initial diff: request pending %v at the receiver, held %v at the sender; want both", sp.diffReqPending, rp.held)
	}
	if r.sess.DiffsSent != 1 {
		t.Fatalf("%d diffs sent for one initial diff and one request with nothing to report, want 1", r.sess.DiffsSent)
	}

	// Something else occupies the connection to the receiver.
	rp.conn.Send(sender.node, proto.Message{Kind: 0, Size: 1e5})
	if rp.conn.QueueLen(sender.node) == 0 {
		t.Fatal("connection to the receiver is idle")
	}
	sender.acceptBlock(5)
	if r.sess.DiffsSent != 2 || rp.held {
		t.Fatalf("after an arrival: %d diffs sent, request held %v; want the held request answered", r.sess.DiffsSent, rp.held)
	}
	r.eng.RunUntil(2)
	if !sp.advertised.Get(5) {
		t.Fatal("the answer did not reach the receiver")
	}
}

// TestDiffsCarryNews runs live streams and one-shot files and checks every
// diff delivered: after the initial one, a diff always advertises at least
// one block, so diff traffic is bounded by arrivals, not by how often a
// receiver at the live edge asks.
func TestDiffsCarryNews(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"file", nil},
		{"stream", func(c *Config) { c.StreamBps = 64 * 1024; c.NumBlocks = 160 }},
		{"periodic-diffs", func(c *Config) { c.PeriodicDiffs = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := buildRig(12, 9, tc.mut, nil)
			diffs, empty := 0, 0
			for _, p := range r.sess.peers {
				deliver := p.node.OnMessage
				p.node.OnMessage = func(c *proto.Conn, m proto.Message) {
					if m.Kind == KindDiff {
						d := m.Payload.(*diffMsg)
						diffs++
						if !d.initial && len(d.ids) == 0 {
							empty++
						}
					}
					deliver(c, m)
				}
			}
			r.run(t, 300)
			if diffs == 0 || empty != 0 {
				t.Fatalf("%d of %d diffs delivered advertise nothing", empty, diffs)
			}
		})
	}
}

// TestGeneratedBlocksAnswerHeldRequest: an encoded source holds no file; it
// generates blocks as its push pump hands them to its tree children, and
// each generated block is an arrival that answers a held diff request.
func TestGeneratedBlocksAnswerHeldRequest(t *testing.T) {
	r := buildRig(3, 5, func(c *Config) { c.Encoded = true }, nil)
	s := r.sess
	// The tree without Start: no RanSub epochs and no pump running yet.
	ransub.Build(s.cfg.Members, s.cfg.Source, ransub.TreeDegree, s.rng.Stream("tree"), isDataKind, s.Agent)
	src, recv := s.peers[0], s.peers[2]
	recv.addSender(0)
	r.eng.RunUntil(1)
	if len(src.receivers) != 1 || !src.receivers[0].held {
		t.Fatal("the source does not hold the receiver's diff request")
	}
	rp, sent := src.receivers[0], s.DiffsSent
	src.pushPump()
	if src.store.Count() == 0 {
		t.Fatal("the pump generated no block")
	}
	if s.DiffsSent != sent+1 || rp.held {
		t.Fatalf("after the pump generated %d blocks: %d diffs sent, request held %v; want the held request answered",
			src.store.Count(), s.DiffsSent-sent, rp.held)
	}
}
