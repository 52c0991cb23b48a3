package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"bulletprime/internal/netem"
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

// TestGoldenDigests pins the request/diff loops' behaviour bit for bit. The
// digests were recorded on the commit before core.peer's per-block state
// went from maps to dense slices and its messages onto free lists; every
// one of those changes is order-preserving, so they must never move. A
// change that is meant to alter protocol behaviour re-records them.
func TestGoldenDigests(t *testing.T) {
	failAt := func(at sim.Time, ids ...netem.NodeID) func(*rig) {
		return func(r *rig) {
			r.eng.Schedule(at, func() {
				for _, id := range ids {
					r.rt.Node(id).Fail()
				}
			})
		}
	}
	cases := []struct {
		name     string
		mut      func(*Config)
		during   func(*rig)
		deadline sim.Time
		want     string
	}{
		{"first", func(c *Config) { c.Strategy = FirstEncountered }, nil, 600,
			"d883a3636554dcded53bd42e8f1ad3177a3e9a1427e85e000799e4cc46dd2587"},
		{"random", func(c *Config) { c.Strategy = Random }, nil, 600,
			"fe7273dfe3c3cde3e0893cb0a911fdb62b30b162abbfbe350ba4d8d03a01ff07"},
		{"rarest", func(c *Config) { c.Strategy = Rarest }, nil, 600,
			"c0273e88db25f969f48c634dc88cc7dc4d2ad59ada29dcea8ba6697c70e83cbc"},
		{"rarest-random", func(c *Config) { c.Strategy = RarestRandom }, nil, 600,
			"c7a27c9ae22ad2254e0974726380287fe3de8345fcd83a67439b04129c00901b"},
		{"periodic-diffs", func(c *Config) { c.PeriodicDiffs = 2 }, nil, 600,
			"f31e56051dfcb0772e01868221c6bc1fb35ccbb9edeca9d7adf9e1963e573b93"},
		{"encoded", func(c *Config) { c.Encoded = true }, nil, 600,
			"d2bd8430d7a58d0bb8de5869d7380f43bb58202194fd41dd8767364a90874d2c"},
		{"stream", func(c *Config) { c.StreamBps = 64 * 1024; c.NumBlocks = 160 }, nil, 120,
			"0cc78f2ced6c61ef971450e59ce74bc4e1068990dea78a1fb1df176c7ce4e9c9"},
		// Senders crash in two waves while claims are outstanding on them:
		// dropSender must hand their claims and rarity counts back.
		{"churn", nil, func(r *rig) {
			failAt(6, 5, 11, 17, 23)(r)
			failAt(14, 8, 29, 35)(r)
		}, 600,
			"5d04549332b73f613406a233b84975d43810c39d55e7e54a906cce465884f937"},
		// A pinned peer-set size small enough that hellos are refused.
		{"static-peers", func(c *Config) { c.StaticPeers = 3 }, nil, 600,
			"192b3ab79b6b8b19dd284146d545ce626abebd62368ae8dd5c44a84703e7b1d7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenDigest(t, tc.mut, tc.during, tc.deadline); got != tc.want {
				t.Fatalf("digest %s, want %s", got, tc.want)
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
	crash := func(r *rig) {
		for _, wave := range []struct {
			at  sim.Time
			ids []netem.NodeID
		}{{6, []netem.NodeID{5, 11, 17, 23}}, {14, []netem.NodeID{8, 29, 35}}} {
			r.eng.Schedule(wave.at, func() {
				for _, id := range wave.ids {
					r.rt.Node(id).Fail()
				}
			})
		}
	}
	cases := []struct {
		name   string
		during func(*rig)
		digest string
		// live and spare bytes at the end, then the peak of each.
		want [4]int
	}{
		{"static", nil, "c7a27c9ae22ad2254e0974726380287fe3de8345fcd83a67439b04129c00901b", [4]int{141248, 40336, 181584, 40336}},
		{"churn", crash, "5d04549332b73f613406a233b84975d43810c39d55e7e54a906cce465884f937", [4]int{112328, 18776, 131104, 18776}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s *Session
			var peakLive, peakSpare int
			during := func(r *rig) {
				s = r.sess
				for _, p := range s.peers {
					distribute := p.rs.OnDistribute
					p.rs.OnDistribute = func(epoch int, set []ransub.Candidate) {
						distribute(epoch, set)
						live, spare := s.senderBytes()
						peakLive, peakSpare = max(peakLive, live), max(peakSpare, spare)
					}
				}
				if tc.during != nil {
					tc.during(r)
				}
			}
			if got := goldenDigest(t, nil, during, 600); got != tc.digest {
				t.Fatalf("digest %s, want %s", got, tc.digest)
			}
			live, spare := s.senderBytes()
			if got := [4]int{live, spare, peakLive, peakSpare}; got != tc.want {
				t.Fatalf("sender bytes (live, spare at the end; peak live, peak spare) = %v, want %v", got, tc.want)
			}
		})
	}
}
