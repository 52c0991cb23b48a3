package core

import (
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// TestSurvivesLeafFailures injects the failure scenario the paper's
// introduction argues meshes are built for: a fraction of peers crash
// mid-download, costing each of their receivers only one of n senders.
// Control-tree leaves are failed (interior failures would partition the
// control plane, which Bullet' inherits from its tree substrate and the
// paper does not evaluate either).
func TestSurvivesLeafFailures(t *testing.T) {
	r := buildRig(16, 31, func(c *Config) { c.NumBlocks = 128 }, nil)
	r.sess.Start()

	// Pick up to 3 control-tree leaves (not the source) to crash at t=15s.
	var victims []netem.NodeID
	r.sess.Tree.Walk(func(id netem.NodeID) {
		if id != 0 && r.sess.Tree.IsLeaf(id) && len(victims) < 3 {
			victims = append(victims, id)
		}
	})
	if len(victims) == 0 {
		t.Skip("tree has no leaves to fail")
	}
	dead := make(map[netem.NodeID]bool)
	r.eng.Schedule(15, func() {
		for _, id := range victims {
			dead[id] = true
			r.rt.Node(id).Fail()
		}
	})

	r.eng.RunUntil(600)

	for id := range r.sess.peers {
		if id == 0 || dead[id] {
			continue
		}
		pi := r.sess.Peer(id)
		if !pi.Complete {
			t.Fatalf("surviving node %d incomplete with %d blocks after leaf failures", id, pi.Blocks)
		}
	}
}

// TestSenderFailureReclaimsClaims verifies the bookkeeping behind
// resilience: when a sender dies, every block claimed from it is freed and
// eventually fetched elsewhere.
func TestSenderFailureReclaimsClaims(t *testing.T) {
	r := buildRig(10, 32, func(c *Config) { c.NumBlocks = 96 }, nil)
	r.sess.Start()
	r.eng.RunUntil(10)

	// Find a receiver with outstanding claims on some live sender.
	var victim netem.NodeID = -1
	for id := netem.NodeID(1); id < 10 && victim < 0; id++ {
		p := r.sess.peers[id]
		if p.complete {
			continue
		}
		for b := 0; b < r.sess.maxBlockID() && victim < 0; b++ {
			for owner := netem.NodeID(1); owner < 10; owner++ { // not the source (don't kill it)
				if p.claims.HeldBy(b, owner) {
					victim = owner
					break
				}
			}
		}
	}
	if victim < 0 {
		t.Skip("no outstanding claims at t=10s")
	}
	r.rt.Node(victim).Fail()
	r.eng.RunUntil(600)

	for id, p := range r.sess.peers {
		if id == 0 || id == victim {
			continue
		}
		if !p.complete {
			t.Fatalf("node %d incomplete after sender %d failed", id, victim)
		}
		for b := 0; b < r.sess.maxBlockID(); b++ {
			if p.claims.HeldBy(b, victim) {
				t.Fatalf("node %d still has block %d claimed on dead sender", id, b)
			}
		}
	}
}

// TestCompletionUnaffectedByLateFailures ensures nodes that already
// finished are untouched by subsequent churn.
func TestCompletionUnaffectedByLateFailures(t *testing.T) {
	r := buildRig(10, 33, nil, nil)
	r.run(t, 600)
	first := make(map[netem.NodeID]sim.Time, len(r.done))
	for id, ts := range r.done {
		first[id] = ts
	}
	// Fail half the nodes after completion; nothing should change.
	for id := 1; id <= 4; id++ {
		r.rt.Node(netem.NodeID(id)).Fail()
	}
	r.eng.RunUntil(r.eng.Now() + 60)
	for id, ts := range first {
		if r.done[id] != ts {
			t.Fatalf("node %d completion time changed after late failures", id)
		}
	}
}
