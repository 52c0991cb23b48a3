package core

import (
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

// rig bundles one experiment's plumbing.
type rig struct {
	eng  *sim.Engine
	net  *netem.Network
	rt   *proto.Runtime
	sess *Session
	done map[netem.NodeID]sim.Time
}

// buildRig creates an n-node uniform mesh topology and a session over it.
func buildRig(n int, seed int64, mut func(*Config), topoMut func(*netem.Topology)) *rig {
	return buildRigOn(sim.NewEngine(), n, seed, mut, topoMut)
}

// buildRigOn is buildRig on a caller-chosen engine.
func buildRigOn(eng *sim.Engine, n int, seed int64, mut func(*Config), topoMut func(*netem.Topology)) *rig {
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(10), netem.Mbps(10), netem.MS(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(4))
				topo.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(10))
			}
		}
	}
	if topoMut != nil {
		topoMut(topo)
	}
	master := sim.NewRNG(seed)
	net := netem.New(eng, topo, master.Stream("net"))
	rt := proto.NewRuntime(eng, net)

	members := make([]netem.NodeID, n)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	r := &rig{eng: eng, net: net, rt: rt, done: make(map[netem.NodeID]sim.Time)}
	cfg := Config{
		Swarm: proto.Swarm{
			Source:    0,
			Members:   members,
			NumBlocks: 64,
			BlockSize: 16 * 1024,
			OnComplete: func(id netem.NodeID) {
				r.done[id] = eng.Now()
			},
		},
		Strategy: RarestRandom,
	}
	if mut != nil {
		mut(&cfg)
	}
	r.sess = NewSession(rt, cfg, master.Stream("session"))
	return r
}

// run starts the session and runs to completion or deadline, failing the
// test if any node is left incomplete.
func (r *rig) run(t *testing.T, deadline sim.Time) {
	t.Helper()
	r.sess.Start()
	r.eng.RunUntil(deadline)
	if !r.sess.Complete() {
		incomplete := 0
		minBlocks := 1 << 30
		for id := range r.sess.peers {
			pi := r.sess.Peer(id)
			if !pi.Complete {
				incomplete++
				if pi.Blocks < minBlocks {
					minBlocks = pi.Blocks
				}
			}
		}
		t.Fatalf("%d nodes incomplete at %v (slowest has %d blocks)", incomplete, r.eng.Now(), minBlocks)
	}
}

func TestSmallDissemination(t *testing.T) {
	r := buildRig(10, 1, nil, nil)
	r.run(t, 300)
	if len(r.done) != 9 {
		t.Fatalf("%d completions, want 9", len(r.done))
	}
	if r.sess.DoneAt() <= 0 {
		t.Fatal("DoneAt not recorded")
	}
}

func TestAllStrategiesComplete(t *testing.T) {
	for _, strat := range []RequestStrategy{FirstEncountered, Random, Rarest, RarestRandom} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			r := buildRig(8, 2, func(c *Config) { c.Strategy = strat }, nil)
			r.run(t, 300)
		})
	}
}

func TestStaticPeersComplete(t *testing.T) {
	r := buildRig(12, 3, func(c *Config) { c.StaticPeers = 6 }, nil)
	r.run(t, 300)
	for id := range r.sess.peers {
		pi := r.sess.Peer(id)
		if pi.MaxSenders != 6 || pi.MaxReceivers != 6 {
			t.Fatalf("node %d peer targets (%d,%d) changed despite StaticPeers", id, pi.MaxSenders, pi.MaxReceivers)
		}
	}
}

func TestStaticOutstandingComplete(t *testing.T) {
	r := buildRig(8, 4, func(c *Config) { c.StaticOutstanding = 5 }, nil)
	r.run(t, 300)
}

func TestLossyNetworkCompletes(t *testing.T) {
	r := buildRig(10, 5, nil, func(topo *netem.Topology) {
		rng := sim.NewRNG(55)
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				if i != j {
					topo.SetCoreLoss(netem.NodeID(i), netem.NodeID(j), rng.Uniform(0, 0.02))
				}
			}
		}
	})
	r.run(t, 600)
}

func TestEncodedModeCompletes(t *testing.T) {
	r := buildRig(8, 6, func(c *Config) {
		c.Encoded = true
		c.EncodingOverhead = 0.04
	}, nil)
	r.run(t, 600)
	goal := r.sess.cfg.goalBlocks()
	for id := range r.sess.peers {
		if id == 0 {
			continue
		}
		if got := r.sess.Peer(id).Blocks; got < goal {
			t.Fatalf("node %d has %d blocks, want >= %d (encoded goal)", id, got, goal)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	runOnce := func() map[netem.NodeID]sim.Time {
		r := buildRig(8, 7, nil, nil)
		r.run(t, 300)
		return r.done
	}
	a := runOnce()
	b := runOnce()
	for id, ta := range a {
		if tb, ok := b[id]; !ok || ta != tb {
			t.Fatalf("node %d completed at %v vs %v across identical runs", id, ta, tb)
		}
	}
}

func TestDuplicatesAreRare(t *testing.T) {
	r := buildRig(10, 8, nil, nil)
	r.run(t, 300)
	totalBlocks := 9 * 64
	if r.sess.Duplicates > totalBlocks/10 {
		t.Fatalf("%d duplicate blocks out of %d deliveries (>10%%)", r.sess.Duplicates, totalBlocks)
	}
}

func TestSourceAdvertisesOnlyAfterPush(t *testing.T) {
	r := buildRig(6, 9, nil, nil)
	src := r.sess.peers[0]
	if cand := src.summarize(); cand.Summary.Count != 0 {
		t.Fatal("source advertised blocks before pushing the file once")
	}
	r.run(t, 300)
	if !src.pushedOnce {
		t.Fatal("source never finished pushing")
	}
	if cand := src.summarize(); cand.Summary.Count != 64 {
		t.Fatalf("source advertises %d blocks after push, want 64", cand.Summary.Count)
	}
}

func TestPeerInfoSnapshot(t *testing.T) {
	r := buildRig(6, 10, nil, nil)
	r.run(t, 300)
	pi := r.sess.Peer(3)
	if pi == nil || !pi.Complete || pi.Blocks != 64 {
		t.Fatalf("PeerInfo = %+v, want complete with 64 blocks", pi)
	}
	if len(pi.ArrivalTimes) != 64 {
		t.Fatalf("arrival log has %d entries, want 64", len(pi.ArrivalTimes))
	}
	if r.sess.Peer(99) != nil {
		t.Fatal("unknown peer should be nil")
	}
}

// --- Controller unit tests -------------------------------------------------

// testPeerForController builds an unstarted session and returns a receiver
// peer with one synthetic sender attached.
func testPeerForController(t *testing.T) (*peer, *senderPeer) {
	t.Helper()
	r := buildRig(4, 20, nil, nil)
	p := r.sess.peers[1]
	sp := &senderPeer{id: 2, desired: 3, markBlock: -2, meter: *trace.NewRateMeter(0.5, 24)}
	p.senders.insert(sp)
	// Simulate measured bandwidth: 10 blocks over the last seconds.
	for i := 0; i < 10; i++ {
		sp.meter.Add(r.eng.Now(), 16*1024)
	}
	return p, sp
}

func TestManageOutstandingIdleIncreases(t *testing.T) {
	p, sp := testPeerForController(t)
	// Pipeline busy (2 still in flight after this arrival), sender was
	// idle 1 s: wasted = -1. Window should increase and be integral
	// (ceiling on increase).
	sp.outstanding = 2
	p.manageOutstanding(sp, &blockMsg{id: 0, inFront: 0, wasted: -1})
	if sp.desired <= 3 {
		t.Fatalf("desired = %v after idle report, want > 3", sp.desired)
	}
	if sp.desired != float64(int(sp.desired)) {
		t.Fatalf("increase not ceiled: %v", sp.desired)
	}
	if !sp.markPending {
		t.Fatal("adjustment did not mark a request")
	}
}

func TestManageOutstandingQueueDecreases(t *testing.T) {
	p, sp := testPeerForController(t)
	sp.desired = 10
	sp.outstanding = 9
	// Deep queue at sender: positive service time, 8 blocks in front.
	p.manageOutstanding(sp, &blockMsg{id: 0, inFront: 8, wasted: 2.0})
	if sp.desired >= 10 {
		t.Fatalf("desired = %v after deep-queue report, want < 10", sp.desired)
	}
	if sp.desired < 1 {
		t.Fatalf("desired = %v fell below floor 1", sp.desired)
	}
}

func TestManageOutstandingMarkFreezes(t *testing.T) {
	p, sp := testPeerForController(t)
	sp.outstanding = 2
	p.manageOutstanding(sp, &blockMsg{id: 0, inFront: 0, wasted: -1})
	if !sp.markPending {
		t.Fatal("no mark after adjustment")
	}
	sp.markBlock = 42 // pretend request 42 was marked
	before := sp.desired
	// Further reports must be ignored until block 42 arrives.
	p.manageOutstanding(sp, &blockMsg{id: 7, inFront: 0, wasted: -5})
	if sp.desired != before {
		t.Fatal("controller adjusted while mark pending")
	}
	p.manageOutstanding(sp, &blockMsg{id: 42, inFront: 0, wasted: 0})
	if sp.markPending {
		t.Fatal("mark not released by marked block arrival")
	}
}

func TestManageOutstandingStaticPinned(t *testing.T) {
	r := buildRig(4, 21, func(c *Config) { c.StaticOutstanding = 7 }, nil)
	p := r.sess.peers[1]
	sp := &senderPeer{id: 2, desired: 7, markBlock: -2, meter: *trace.NewRateMeter(0.5, 24)}
	p.senders.insert(sp)
	p.manageOutstanding(sp, &blockMsg{id: 0, inFront: 0, wasted: -10})
	if sp.desired != 7 {
		t.Fatalf("static outstanding changed to %v", sp.desired)
	}
}

func TestSenderLimitFloor(t *testing.T) {
	sp := &senderPeer{desired: 0.3}
	if sp.limit() != 1 {
		t.Fatalf("limit = %d for desired 0.3, want 1", sp.limit())
	}
	sp.desired = 4.7
	if sp.limit() != 4 {
		t.Fatalf("limit = %d for desired 4.7, want 4", sp.limit())
	}
}

// --- Figure 2 hill-climb unit tests ----------------------------------------

func hillClimbPeer(t *testing.T) *peer {
	t.Helper()
	r := buildRig(4, 22, nil, nil)
	return r.sess.peers[1]
}

func fillSenders(p *peer, n int) {
	for i := 0; i < n; i++ {
		id := netem.NodeID(100 + i)
		p.senders.insert(&senderPeer{id: id})
	}
}

func TestHillClimbGrowsOnImprovement(t *testing.T) {
	p := hillClimbPeer(t)
	p.maxSenders.n = 10
	fillSenders(p, 10)
	p.maxSenders.prevNum = 9 // grew last epoch
	p.maxSenders.prevBW = 100
	p.maxSenders.climb(len(p.senders), 150, MaxPeers) // and bandwidth improved
	if p.maxSenders.n != 11 {
		t.Fatalf("maxSenders = %d, want 11 (reward growth)", p.maxSenders.n)
	}
}

func TestHillClimbBacksOffOnRegression(t *testing.T) {
	p := hillClimbPeer(t)
	p.maxSenders.n = 10
	fillSenders(p, 10)
	p.maxSenders.prevNum = 9
	p.maxSenders.prevBW = 200
	p.maxSenders.climb(len(p.senders), 150, MaxPeers) // adding a sender hurt
	if p.maxSenders.n != 9 {
		t.Fatalf("maxSenders = %d, want 9 (punish growth)", p.maxSenders.n)
	}
}

func TestHillClimbShrinkImproved(t *testing.T) {
	p := hillClimbPeer(t)
	p.maxSenders.n = 10
	fillSenders(p, 10)
	p.maxSenders.prevNum = 11 // shrank last epoch
	p.maxSenders.prevBW = 100
	p.maxSenders.climb(len(p.senders), 150, MaxPeers) // and got faster: shrink more
	if p.maxSenders.n != 9 {
		t.Fatalf("maxSenders = %d, want 9", p.maxSenders.n)
	}
}

func TestHillClimbOnlyAtTarget(t *testing.T) {
	p := hillClimbPeer(t)
	p.maxSenders.n = 10
	fillSenders(p, 7) // not at target: no adjustment
	p.maxSenders.prevNum = 6
	p.maxSenders.prevBW = 0
	p.maxSenders.climb(len(p.senders), 100, MaxPeers)
	if p.maxSenders.n != 10 {
		t.Fatalf("maxSenders = %d, want 10 (no adjustment off target)", p.maxSenders.n)
	}
}

func TestHillClimbClamped(t *testing.T) {
	p := hillClimbPeer(t)
	p.maxSenders.n = MaxPeers
	fillSenders(p, MaxPeers)
	p.maxSenders.prevNum = MaxPeers - 1
	p.maxSenders.prevBW = 100
	p.maxSenders.climb(len(p.senders), 200, MaxPeers)
	if p.maxSenders.n != MaxPeers {
		t.Fatalf("maxSenders = %d exceeded MaxPeers", p.maxSenders.n)
	}
	p.maxSenders.n = MinPeers
	p.senders = nil
	fillSenders(p, MinPeers)
	p.maxSenders.prevNum = MinPeers + 1
	p.maxSenders.prevBW = 100
	p.maxSenders.climb(len(p.senders), 200, MaxPeers) // shrink rewarded, but clamped at MinPeers
	if p.maxSenders.n != MinPeers {
		t.Fatalf("maxSenders = %d fell below MinPeers", p.maxSenders.n)
	}
}

func TestHillClimbProbesWhenQuiescent(t *testing.T) {
	p := hillClimbPeer(t)
	p.maxSenders.n = 10
	fillSenders(p, 10)
	p.maxSenders.prevNum = 10 // stable at target: no gradient
	p.maxSenders.prevBW = 100
	p.maxSenders.climb(len(p.senders), 100, MaxPeers)
	if p.maxSenders.n != 11 {
		t.Fatalf("maxSenders = %d, want upward probe to 11", p.maxSenders.n)
	}
	// A punished upward move flips probing downward.
	p.senders = nil
	fillSenders(p, 11)
	p.maxSenders.n = 11
	p.maxSenders.prevNum = 10
	p.maxSenders.prevBW = 200
	p.maxSenders.climb(len(p.senders), 150, MaxPeers) // grew and got slower
	if p.maxSenders.n != 10 || !p.maxSenders.probeDown {
		t.Fatalf("punished growth: max=%d probeDown=%v", p.maxSenders.n, p.maxSenders.probeDown)
	}
	p.senders = nil
	fillSenders(p, 10)
	p.maxSenders.prevNum = 10
	p.maxSenders.prevBW = 150
	p.maxSenders.climb(len(p.senders), 150, MaxPeers) // quiescent again: now probes downward
	if p.maxSenders.n != 9 {
		t.Fatalf("maxSenders = %d, want downward probe to 9", p.maxSenders.n)
	}
}

func TestEnforcePeerTargetsSheds(t *testing.T) {
	p := hillClimbPeer(t)
	fillSenders(p, 10)
	// Give each synthetic sender a conn so dropSender can close it.
	for _, sp := range p.senders {
		sp.conn = p.node.Dial(2)
		sp.advertised = *proto.NewBitmap(p.s.maxBlockID())
	}
	p.maxSenders.n = 7
	p.enforcePeerTargets()
	if len(p.senders) != 7 {
		t.Fatalf("senders = %d after enforcement, want 7", len(p.senders))
	}
}

func TestRequestStrategyString(t *testing.T) {
	cases := map[RequestStrategy]string{
		FirstEncountered:   "first",
		Random:             "random",
		Rarest:             "rarest",
		RarestRandom:       "rarest-random",
		RequestStrategy(9): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestPeriodicDiffsComplete(t *testing.T) {
	r := buildRig(10, 40, func(c *Config) { c.PeriodicDiffs = 2 }, nil)
	r.run(t, 600)
}

func TestConfigDefaults(t *testing.T) {
	c, err := Config{Swarm: proto.Swarm{NumBlocks: 100}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockSize != 16*1024 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.goalBlocks() != 100 {
		t.Fatalf("unencoded goal = %d, want 100", c.goalBlocks())
	}
	c.Encoded = true
	if got := c.goalBlocks(); got != 104 {
		t.Fatalf("encoded goal = %d, want 104", got)
	}
}
