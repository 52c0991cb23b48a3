package bullet

import (
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

func buildB(n, numBlocks int, seed int64) (*sim.Engine, *Session) {
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
	s := NewSession(rt, Config{Swarm: proto.Swarm{
		Source: 0, Members: members,
		NumBlocks: numBlocks, BlockSize: 16 * 1024,
	}}, master.Stream("bullet"))
	return eng, s
}

func TestCompletes(t *testing.T) {
	eng, s := buildB(12, 64, 1)
	s.Start()
	eng.RunUntil(900)
	if !s.Complete() {
		missing, minB := 0, 1<<30
		for _, p := range s.peers {
			if !p.complete {
				missing++
				if c := p.store.Count(); c < minB {
					minB = c
				}
			}
		}
		t.Fatalf("%d nodes incomplete at %v (slowest %d blocks)", missing, eng.Now(), minB)
	}
}

func TestTreePushIsDisjoint(t *testing.T) {
	// Isolate the tree push: a RanSub period far beyond the horizon means
	// the mesh never forms (the first distribute carries an empty pool),
	// so every arrival at a direct child is a push. Each block must then
	// appear at exactly one child — Bullet's disjoint-subsets property.
	eng := sim.NewEngine()
	n := 9
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
	master := sim.NewRNG(2)
	net := netem.New(eng, topo, master.Stream("net"))
	rt := proto.NewRuntime(eng, net)
	members := make([]netem.NodeID, n)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	s := NewSession(rt, Config{
		Swarm: proto.Swarm{Source: 0, Members: members,
			NumBlocks: 64, BlockSize: 16 * 1024},
		RanSubPeriod: 1e6,
	}, master.Stream("bullet"))
	s.Start()
	eng.RunUntil(60)

	kids := s.peers[0].rs.ChildIDs()
	if len(kids) < 2 {
		t.Fatalf("tree too narrow: %d direct children", len(kids))
	}
	// A star tree has no interior forwarders, so every push transmission
	// is a source push: exactly one per block means the subsets handed to
	// the children are disjoint.
	if s.PushesSent != 64 {
		t.Fatalf("source sent %d pushes for 64 blocks, want exactly 64 (disjoint subsets)", s.PushesSent)
	}
}

func TestMeshRecoversTreeDrops(t *testing.T) {
	eng, s := buildB(14, 96, 3)
	s.Start()
	eng.RunUntil(900)
	if !s.Complete() {
		t.Fatal("incomplete")
	}
	// Disjoint pushes mean every node misses most of the file from the
	// tree alone: the mesh must have pulled the difference.
	if s.RequestsSent == 0 {
		t.Fatal("mesh never pulled anything")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() sim.Time {
		eng, s := buildB(10, 48, 4)
		s.Start()
		eng.RunUntil(900)
		if !s.Complete() {
			t.Fatal("incomplete")
		}
		return s.DoneAt()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed finished at %v vs %v", a, b)
	}
}

func TestSenderCapRespected(t *testing.T) {
	eng, s := buildB(30, 64, 5)
	s.Start()
	eng.RunUntil(120)
	for id, p := range s.peers {
		if len(p.senders) > SenderTarget {
			t.Fatalf("node %d has %d senders, cap %d", id, len(p.senders), SenderTarget)
		}
	}
}

func TestOutstandingCapRespected(t *testing.T) {
	eng, s := buildB(10, 96, 6)
	s.Start()
	for step := 0; step < 40; step++ {
		eng.RunUntil(sim.Time(float64(step) * 0.5))
		for id, p := range s.peers {
			for _, sp := range p.senders {
				if sp.outstanding > MaxOutstanding {
					t.Fatalf("node %d sender %d outstanding %d > %d", id, sp.id, sp.outstanding, MaxOutstanding)
				}
			}
		}
	}
}

func TestLossyCompletes(t *testing.T) {
	eng := sim.NewEngine()
	n := 10
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(10), netem.Mbps(10), netem.MS(1))
	rng := sim.NewRNG(7)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(4))
				topo.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(20))
				topo.SetCoreLoss(netem.NodeID(i), netem.NodeID(j), rng.Uniform(0, 0.02))
			}
		}
	}
	net := netem.New(eng, topo, rng.Stream("net"))
	rt := proto.NewRuntime(eng, net)
	members := make([]netem.NodeID, n)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	s := NewSession(rt, Config{Swarm: proto.Swarm{Source: 0, Members: members, NumBlocks: 48, BlockSize: 16 * 1024}}, rng.Stream("bullet"))
	s.Start()
	eng.RunUntil(900)
	if !s.Complete() {
		t.Fatalf("lossy run incomplete at %v", eng.Now())
	}
}
