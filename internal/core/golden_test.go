package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

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
	digest   string
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
	{"first", func(c *Config) { c.Strategy = FirstEncountered }, nil, 600,
		"0edaaa21064a35270f023ebba29750183fbd6ba74f27fe4fd684489343490b5c"},
	{"random", func(c *Config) { c.Strategy = Random }, nil, 600,
		"2393e0d93a402368b8218993e90ad6a283d56ac7387aa69049acce0dda3942d6"},
	{"rarest", func(c *Config) { c.Strategy = Rarest }, nil, 600,
		"c6d86a5d634010680da52137abd29223c52098e4b43711e4ee953855de464185"},
	{"rarest-random", func(c *Config) { c.Strategy = RarestRandom }, nil, 600,
		"bed8e365bc8b493c133de3ad3ac30c728d3c0024572e6dc641323149a4737607"},
	{"periodic-diffs", func(c *Config) { c.PeriodicDiffs = 2 }, nil, 600,
		"b749764ea541f8518563a593df9f66d1fd18347856671452831c9450dea51ee0"},
	{"encoded", func(c *Config) { c.Encoded = true }, nil, 600,
		"5dfd90790b7369201975e9e4c65d3ad6d005f3b26db261f19c30c873008bbda7"},
	{"stream", func(c *Config) { c.StreamBps = 64 * 1024; c.NumBlocks = 160 }, nil, 120,
		"f5c956ba96a7e6400df214342fdea083ea4bb026af5aceb5abe41d1e05f48a69"},
	// Senders crash in two waves while claims are outstanding on them:
	// dropSender must hand their claims and rarity counts back.
	{"churn", nil, func(r *rig) {
		failAt(6, 5, 11, 17, 23)(r)
		failAt(14, 8, 29, 35)(r)
	}, 600,
		"a46a3861870bbd42077d82c8aeffe19b266be8dc0a69ba7b5077140141c5b76a"},
	// A pinned peer-set size small enough that hellos are refused.
	{"static-peers", func(c *Config) { c.StaticPeers = 3 }, nil, 600,
		"7e4ce0d4fd0ce0d642dabbde57a5fc7513e21043d561a1d9d1f462cfe59ee04f"},
}

// goldenRowNamed returns the TestGoldenDigests row with the given name.
func goldenRowNamed(t *testing.T, name string) goldenRow {
	for _, row := range goldenRows {
		if row.name == name {
			return row
		}
	}
	t.Fatalf("no golden row %q", name)
	return goldenRow{}
}

// TestGoldenDigests pins the request/diff loops' behaviour bit for bit. The
// digests were recorded on the commit before core.peer's per-block state
// went from maps to dense slices and its messages onto free lists; every
// one of those changes is order-preserving, so they must never move. A
// change that is meant to alter protocol behaviour re-records them.
func TestGoldenDigests(t *testing.T) {
	for _, tc := range goldenRows {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenDigest(t, tc.mut, tc.during, tc.deadline); got != tc.digest {
				t.Fatalf("digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// kindNames names Bullet′'s message kinds and the RanSub kinds it carries,
// in the order TestTrafficGolden lists them.
var kindNames = []struct {
	kind int
	name string
}{
	{KindHello, "hello"}, {KindReject, "reject"}, {KindDiff, "diff"}, {KindDiffReq, "diff-req"},
	{KindRequest, "request"}, {KindBlock, "block"}, {KindPush, "push"},
	{ransub.KindDistribute, "distribute"}, {ransub.KindCollect, "collect"},
}

// TestTrafficGolden pins, on four rows of the TestGoldenDigests rig, the
// messages and wire bytes delivered per message kind. Digests say that a
// run changed; these counts say which exchange changed and by how much, so
// a change to the diff clock states its effect here in numbers. Every
// message the runtime delivered is one of the kinds listed.
func TestTrafficGolden(t *testing.T) {
	type counts struct{ msgs, bytes uint64 }
	cases := []struct {
		row  string
		want [9]counts // in kindNames order
	}{
		// (messages, bytes) of hello, reject, diff, diff-req, request;
		// then block, push, distribute, collect.
		{"first", [9]counts{
			{305, 19520}, {0, 0}, {10762, 786224}, {7008, 448512}, {7328, 527616},
			{7296, 119654400}, {192, 3148800}, {4680, 13088720}, {4680, 2358560}}},
		{"rarest-random", [9]counts{
			{299, 19136}, {0, 0}, {9004, 666696}, {4313, 276032}, {7331, 527832},
			{7296, 119654400}, {192, 3148800}, {4680, 13088720}, {4680, 2358560}}},
		{"stream", [9]counts{
			{184, 11776}, {0, 0}, {8482, 581924}, {7964, 509696}, {6099, 439128},
			{6080, 99712000}, {160, 2624000}, {936, 2545616}, {936, 471936}}},
		{"churn", [9]counts{
			{207, 13248}, {0, 0}, {5626, 423384}, {2747, 175808}, {6245, 449640},
			{6205, 101762000}, {192, 3148800}, {3505, 9779920}, {3152, 1346832}}},
	}
	for _, tc := range cases {
		t.Run(tc.row, func(t *testing.T) {
			row := goldenRowNamed(t, tc.row)
			var rt *proto.Runtime
			during := func(r *rig) {
				rt = r.rt
				if row.during != nil {
					row.during(r)
				}
			}
			if got := goldenDigest(t, row.mut, during, row.deadline); got != row.digest {
				t.Fatalf("digest %s, want %s", got, row.digest)
			}
			var got [9]counts
			var msgs uint64
			for i, k := range kindNames {
				kt := rt.Traffic.Kind(k.kind)
				if kt.Bytes != math.Trunc(kt.Bytes) {
					t.Fatalf("%s: %v bytes, not a whole number", k.name, kt.Bytes)
				}
				got[i] = counts{kt.Messages, uint64(kt.Bytes)}
				msgs += kt.Messages
			}
			if msgs != rt.MessagesDelivered {
				t.Fatalf("the listed kinds carry %d of %d delivered messages", msgs, rt.MessagesDelivered)
			}
			if got != tc.want {
				var b strings.Builder
				for i, k := range kindNames {
					fmt.Fprintf(&b, "\n  %-10s %9d msgs %12d B (want %d, %d)", k.name, got[i].msgs, got[i].bytes, tc.want[i].msgs, tc.want[i].bytes)
				}
				t.Fatalf("traffic by kind moved:%s\nas a literal: %v", b.String(), got)
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
	cases := []struct {
		name string
		row  string // the TestGoldenDigests row that runs
		// live and spare bytes at the end, then the peak of each.
		want [4]int
	}{
		{"static", "rarest-random", [4]int{138704, 39856, 178560, 39856}},
		{"churn", "churn", [4]int{113088, 17944, 131032, 17944}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			row := goldenRowNamed(t, tc.row)
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
				if row.during != nil {
					row.during(r)
				}
			}
			if got := goldenDigest(t, row.mut, during, row.deadline); got != row.digest {
				t.Fatalf("digest %s, want %s", got, row.digest)
			}
			live, spare := s.senderBytes()
			if got := [4]int{live, spare, peakLive, peakSpare}; got != tc.want {
				t.Fatalf("sender bytes (live, spare at the end; peak live, peak spare) = %v, want %v", got, tc.want)
			}
		})
	}
}
