package splitstream

import (
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

func buildSS(n, numBlocks, stripes int, seed int64) (*sim.Engine, *Session) {
	eng := sim.NewEngine()
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
	master := sim.NewRNG(seed)
	net := netem.New(eng, topo, master.Stream("net"))
	rt := proto.NewRuntime(eng, net)
	members := make([]netem.NodeID, n)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	s := NewSession(rt, Config{
		Swarm:   proto.Swarm{Source: 0, Members: members, NumBlocks: numBlocks, BlockSize: 16 * 1024},
		Stripes: stripes,
	}, master.Stream("ss"))
	return eng, s
}

func TestCompletes(t *testing.T) {
	eng, s := buildSS(12, 64, 4, 1)
	s.Start()
	eng.RunUntil(600)
	if !s.Complete() {
		missing := 0
		for _, p := range s.peers {
			if !p.complete {
				missing++
			}
		}
		t.Fatalf("%d nodes incomplete at %v", missing, eng.Now())
	}
}

func TestEveryNodeGetsEveryStripe(t *testing.T) {
	eng, s := buildSS(10, 80, 8, 2)
	s.Start()
	eng.RunUntil(600)
	for id, p := range s.peers {
		if p.store.Count() != 80 {
			t.Fatalf("node %d has %d/80 blocks", id, p.store.Count())
		}
	}
}

func TestInteriorDisjointness(t *testing.T) {
	_, s := buildSS(17, 64, 4, 3)
	// A non-source node must be interior (have children) in at most one
	// stripe tree — SplitStream's defining property.
	interiorCount := make(map[netem.NodeID]int)
	for _, tr := range s.trees {
		for id, kids := range tr.children {
			if id != s.cfg.Source && len(kids) > 0 {
				interiorCount[id]++
			}
		}
	}
	for id, c := range interiorCount {
		if c > 1 {
			t.Fatalf("node %d is interior in %d stripe trees", id, c)
		}
	}
}

func TestTreesSpanAllMembers(t *testing.T) {
	_, s := buildSS(15, 64, 4, 4)
	for _, tr := range s.trees {
		reached := map[netem.NodeID]bool{s.cfg.Source: true}
		queue := []netem.NodeID{s.cfg.Source}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			for _, c := range tr.children[id] {
				if reached[c] {
					t.Fatalf("stripe %d: node %d reached twice (cycle)", tr.stripe, c)
				}
				reached[c] = true
				queue = append(queue, c)
			}
		}
		if len(reached) != 15 {
			t.Fatalf("stripe %d tree spans %d/15 members", tr.stripe, len(reached))
		}
	}
}

func TestStripeAssignment(t *testing.T) {
	_, s := buildSS(5, 40, 8, 5)
	for b := 0; b < 40; b++ {
		if s.stripeOf(b) != b%8 {
			t.Fatal("stripeOf wrong")
		}
	}
}

func TestDeterministic(t *testing.T) {
	run := func() sim.Time {
		eng, s := buildSS(10, 48, 4, 6)
		s.Start()
		eng.RunUntil(600)
		if !s.Complete() {
			t.Fatal("incomplete")
		}
		return s.DoneAt()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed finished at %v vs %v", a, b)
	}
}

func TestInteriorForwardingHappens(t *testing.T) {
	eng, s := buildSS(12, 64, 4, 7)
	s.Start()
	eng.RunUntil(600)
	if s.BlocksForwarded == 0 {
		t.Fatal("no interior forwarding: trees degenerate to source-direct")
	}
}

func TestSlowChildDoesNotBlockSiblings(t *testing.T) {
	// Node 1's inbound link is crippled; its stripe siblings must still
	// finish promptly (per-child cursors, no head-of-line blocking).
	eng := sim.NewEngine()
	n := 10
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(10), netem.Mbps(10), netem.MS(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(4))
				topo.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(5))
			}
		}
	}
	topo.AccessIn[1] = netem.Kbps(256)
	master := sim.NewRNG(8)
	net := netem.New(eng, topo, master.Stream("net"))
	rt := proto.NewRuntime(eng, net)
	members := make([]netem.NodeID, n)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	// Unbounded skew (idealized SplitStream): siblings must not stall.
	s := NewSession(rt, Config{Swarm: proto.Swarm{Source: 0, Members: members, NumBlocks: 48, BlockSize: 16 * 1024}, Stripes: 4, MaxSkew: -1}, master.Stream("ss"))
	var fastDone int
	s.cfg.OnComplete = func(id netem.NodeID) {
		if id != 1 {
			fastDone++
		}
	}
	s.Start()
	eng.RunUntil(120)
	if fastDone < n-2 {
		t.Fatalf("only %d fast nodes done by 120s; slow child stalled the trees", fastDone)
	}
}

func TestBoundedSkewStallsSiblings(t *testing.T) {
	// Isolate the MS forwarding model: a source pushing one stripe to
	// three direct children, one of which has a crippled downlink. With
	// bounded forward buffers the fast siblings stall at the slow child's
	// pace; with unbounded buffers they finish at their own speed.
	build := func(maxSkew int) (fast, slow float64) {
		eng := sim.NewEngine()
		n := 4
		topo := netem.NewTopology(n)
		topo.SetUniformAccess(netem.Mbps(10), netem.Mbps(10), netem.MS(1))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(10))
					topo.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(5))
				}
			}
		}
		topo.AccessIn[2] = netem.Kbps(128) // node 2: 16 KB/s downlink
		master := sim.NewRNG(9)
		net := netem.New(eng, topo, master.Stream("net"))
		rt := proto.NewRuntime(eng, net)
		members := []netem.NodeID{0, 1, 2, 3}
		s := NewSession(rt, Config{Swarm: proto.Swarm{Source: 0, Members: members, NumBlocks: 32,
			BlockSize: 16 * 1024}, Stripes: 1, MaxSkew: maxSkew}, master.Stream("ss"))
		// Surgery: source feeds all three children directly in stripe 0.
		src := s.peers[0]
		src.out = map[int][]*childLink{}
		for _, id := range []netem.NodeID{1, 2, 3} {
			c := src.node.Dial(id)
			src.out[0] = append(src.out[0], &childLink{conn: c})
		}
		for id, p := range s.peers {
			if id != 0 {
				p.out = map[int][]*childLink{}
			}
		}
		done := map[netem.NodeID]float64{}
		s.cfg.OnComplete = func(id netem.NodeID) { done[id] = float64(eng.Now()) }
		src.startSource()
		eng.RunUntil(600)
		return done[1], done[2]
	}
	fastBounded, slowBounded := build(4)
	fastUnbounded, _ := build(-1)
	if slowBounded == 0 || fastBounded == 0 || fastUnbounded == 0 {
		t.Fatal("nodes did not complete")
	}
	// Bounded: the fast sibling is dragged to within a skew window of the
	// slow child. Unbounded: it finishes far earlier.
	if fastBounded < slowBounded*0.5 {
		t.Fatalf("bounded skew: fast sibling at %.1fs vs slow %.1fs — no stall", fastBounded, slowBounded)
	}
	if fastUnbounded > fastBounded*0.5 {
		t.Fatalf("unbounded skew: fast sibling at %.1fs, bounded %.1fs — buffers not freeing siblings", fastUnbounded, fastBounded)
	}
}
