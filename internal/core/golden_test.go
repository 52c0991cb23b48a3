package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"bulletprime/internal/golden"
	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/ransub"
	"bulletprime/internal/sim"
)

// goldenDigest runs one 40-node session on a heterogeneous mesh and folds
// everything order-sensitive about it into a SHA-256: every novel block
// arrival (node, block, count, virtual time) in event order, then per node
// the completion time, block count, duplicate count and final peer-set
// shape, then the session counters. Any change to the order in which the
// request/diff loops visit senders, receivers or blocks moves it.
func goldenDigest(t *testing.T, mut func(*Config), during func(*rig), deadline sim.Time) string {
	t.Helper()
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	var r *rig
	r = buildRig(40, 4242, func(c *Config) {
		c.NumBlocks = 192
		c.OnBlock = func(node netem.NodeID, block, count int) {
			put(uint64(node), uint64(block), uint64(count), math.Float64bits(float64(r.eng.Now())))
		}
		if mut != nil {
			mut(c)
		}
	}, func(topo *netem.Topology) {
		// Uneven core bandwidth and a few slow access links, so senders
		// differ enough for trimming, shedding and replacement to fire.
		rng := sim.NewRNG(99)
		for i := 0; i < 40; i++ {
			for j := 0; j < 40; j++ {
				if i != j {
					topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(rng.Uniform(0.3, 4)))
				}
			}
		}
	})
	r.sess.Start()
	if during != nil {
		during(r)
	}
	// The want invariant is checked while requests are in flight and once
	// everything has settled. Pausing the engine schedules nothing, so the
	// digest cannot see the pauses.
	for _, at := range []sim.Time{deadline / 60, deadline / 20, deadline / 8, deadline / 3, deadline} {
		r.eng.RunUntil(at)
		checkWant(t, r.sess)
	}
	for id := 0; id < 40; id++ {
		pi := r.sess.Peer(netem.NodeID(id))
		complete := uint64(0)
		if pi.Complete {
			complete = 1
		}
		put(complete, math.Float64bits(float64(pi.CompletedAt)), uint64(pi.Blocks), uint64(pi.DuplicateCount),
			uint64(pi.Senders), uint64(pi.Receivers), uint64(pi.MaxSenders), uint64(pi.MaxReceivers))
	}
	s := r.sess
	put(uint64(s.RequestsSent), uint64(s.DiffsSent), uint64(s.Duplicates), uint64(s.Rejects),
		uint64(s.BlocksPulled), uint64(s.BlocksPushed), math.Float64bits(float64(s.DoneAt())))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRow is one configuration of the TestGoldenDigests rig.
type goldenRow struct {
	name     string
	mut      func(*Config)
	during   func(*rig)
	deadline sim.Time
}

// failAt crashes the given nodes at virtual time at.
func failAt(at sim.Time, ids ...netem.NodeID) func(*rig) {
	return func(r *rig) {
		r.eng.Schedule(at, func() {
			for _, id := range ids {
				r.rt.Node(id).Fail()
			}
		})
	}
}

var goldenRows = []goldenRow{
	{"first", func(c *Config) { c.Strategy = FirstEncountered }, nil, 600},
	{"random", func(c *Config) { c.Strategy = Random }, nil, 600},
	{"rarest", func(c *Config) { c.Strategy = Rarest }, nil, 600},
	{"rarest-random", func(c *Config) { c.Strategy = RarestRandom }, nil, 600},
	{"periodic-diffs", func(c *Config) { c.PeriodicDiffs = 2 }, nil, 600},
	{"encoded", func(c *Config) { c.Encoded = true }, nil, 600},
	{"stream", func(c *Config) { c.StreamBps = 64 * 1024; c.NumBlocks = 160 }, nil, 120},
	// Senders crash in two waves while claims are outstanding on them:
	// dropSender must hand their claims and rarity counts back.
	{"churn", nil, func(r *rig) {
		failAt(6, 5, 11, 17, 23)(r)
		failAt(14, 8, 29, 35)(r)
	}, 600},
	// A pinned peer-set size small enough that hellos are refused.
	{"static-peers", func(c *Config) { c.StaticPeers = 3 }, nil, 600},
}

// runGoldenRow runs the TestGoldenDigests row called name, calling during
// (if any) before the row's own, and checks the run's digest against that
// row's pin.
func runGoldenRow(t *testing.T, name string, during func(*rig)) {
	t.Helper()
	i := slices.IndexFunc(goldenRows, func(row goldenRow) bool { return row.name == name })
	if i < 0 {
		t.Fatalf("no golden row %q", name)
	}
	row := goldenRows[i]
	both := func(r *rig) {
		if during != nil {
			during(r)
		}
		if row.during != nil {
			row.during(r)
		}
	}
	golden.Check(t, "TestGoldenDigests/"+name, goldenDigest(t, row.mut, both, row.deadline))
}

// TestGoldenDigests pins the request/diff loops' behaviour bit for bit. The
// digests were recorded on the commit before core.peer's per-block state
// went from maps to dense slices and its messages onto free lists; every
// one of those changes is order-preserving, so they must never move. A
// change that is meant to alter protocol behaviour re-records them.
func TestGoldenDigests(t *testing.T) {
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) { runGoldenRow(t, row.name, nil) })
	}
}

// kindNames names Bullet′'s message kinds and the RanSub kinds it carries.
var kindNames = []struct {
	kind int
	name string
}{
	{KindHello, "hello"}, {KindReject, "reject"}, {KindDiff, "diff"}, {KindDiffReq, "diff-req"},
	{KindRequest, "request"}, {KindBlock, "block"}, {KindPush, "push"},
	{ransub.KindDistribute, "distribute"}, {ransub.KindCollect, "collect"},
}

// TestTrafficGolden pins, on four rows of the TestGoldenDigests rig, the
// messages and wire bytes delivered per message kind, one pin per row and
// kind. Digests say that a run changed; these counts say which exchange
// changed and by how much, so a change to the diff clock states its effect
// here in numbers. Every message the runtime delivered is one of the kinds
// listed.
func TestTrafficGolden(t *testing.T) {
	for _, name := range []string{"first", "rarest-random", "stream", "churn"} {
		t.Run(name, func(t *testing.T) {
			var rt *proto.Runtime
			runGoldenRow(t, name, func(r *rig) { rt = r.rt })
			var msgs uint64
			for _, k := range kindNames {
				kt := rt.Traffic.Kind(k.kind)
				if kt.Bytes != math.Trunc(kt.Bytes) {
					t.Fatalf("%s: %v bytes, not a whole number", k.name, kt.Bytes)
				}
				golden.Check(t, t.Name()+"/"+k.name, fmt.Sprintf("msgs=%d bytes=%d", kt.Messages, uint64(kt.Bytes)))
				msgs += kt.Messages
			}
			if msgs != rt.MessagesDelivered {
				t.Fatalf("the listed kinds carry %d of %d delivered messages", msgs, rt.MessagesDelivered)
			}
		})
	}
}

// TestSenderBytesGolden pins the per-block memory Bullet' senders hold
// (senderBytes: availability arrays by capacity, advertised bitmaps and
// rate meters), live and spare, on two runs of the TestGoldenDigests rig:
// one without failures and one with its two waves of sender crashes. Each
// count is taken at the end of the run and at its peak over every peer's
// RanSub distribute, the step that trims, reaps and replaces senders. The
// counts are pure functions of the run, so memory a change adds shows here
// as a number.
func TestSenderBytesGolden(t *testing.T) {
	for _, tc := range []struct{ name, row string }{{"static", "rarest-random"}, {"churn", "churn"}} {
		t.Run(tc.name, func(t *testing.T) {
			var s *Session
			var peakLive, peakSpare int
			runGoldenRow(t, tc.row, func(r *rig) {
				s = r.sess
				for _, p := range s.peers {
					distribute := p.rs.OnDistribute
					p.rs.OnDistribute = func(epoch int, set []ransub.Candidate) {
						distribute(epoch, set)
						live, spare := s.senderBytes()
						peakLive, peakSpare = max(peakLive, live), max(peakSpare, spare)
					}
				}
			})
			live, spare := s.senderBytes()
			for _, pin := range []struct {
				name  string
				bytes int
			}{{"live", live}, {"spare", spare}, {"peak-live", peakLive}, {"peak-spare", peakSpare}} {
				golden.Check(t, t.Name()+"/"+pin.name, strconv.Itoa(pin.bytes))
			}
		})
	}
}
