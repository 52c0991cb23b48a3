package bittorrent

import "testing"

// warmedLeecher returns leecher 1 of a 4-node swarm of 1024 sub-pieces (64
// pieces), unchoked by a source connection whose proto link is already
// closed, so everything the peer sends is dropped at Send and a pin counts
// only the peer's own allocations. Pieces 20 and 21 are partly held
// (active) and every piece is equally available, so picks walk the active
// pieces and then draw among rarest ties. Their ids run past 255, where a
// boxed integer payload would allocate.
func warmedLeecher(t *testing.T) (*btPeer, *btConn) {
	t.Helper()
	_, s := buildSwarm(4, 1024, 21)
	p := s.peers[1]
	c := p.node.Dial(0)
	c.Close(p.node)
	bc := &btConn{id: 0, conn: c, remotePieces: s.peers[0].pieces.Clone()}
	p.conns[0] = bc
	c.SetState(p.node, bc)
	for b := 20 * BlocksPerPiece; b < 22*BlocksPerPiece; b += 3 {
		p.blocks.Add(b, 0)
	}
	p.activePieces[20], p.activePieces[21] = true, true
	return p, bc
}

// TestPickBlockDoesNotAllocate pins BitTorrent's block choice: the active
// pieces are a dense flag per piece walked in order, the rarest ties live
// in the peer's scratch, and claims are a dense owner per sub-piece.
func TestPickBlockDoesNotAllocate(t *testing.T) {
	p, bc := warmedLeecher(t)
	allocs := testing.AllocsPerRun(200, func() {
		b, ok := p.pickBlock(bc)
		if !ok {
			t.Fatal("nothing left to pick")
		}
		p.claim(b, bc.id)
	})
	if allocs != 0 {
		t.Fatalf("pickBlock allocates %v objects per call, want 0", allocs)
	}
}

// TestRequestMoreDoesNotAllocate pins a full request window: five picks,
// five claims and five request messages, whose payloads point into the
// session's index table.
func TestRequestMoreDoesNotAllocate(t *testing.T) {
	p, bc := warmedLeecher(t)
	before := p.s.RequestsSent
	allocs := testing.AllocsPerRun(100, func() {
		p.releaseClaims(bc.id)
		bc.outstanding = 0
		p.requestMore(bc)
	})
	if sent := p.s.RequestsSent - before; sent != 101*MaxOutstanding {
		t.Fatalf("%d requests sent over 101 windows, want %d", sent, 101*MaxOutstanding)
	}
	if allocs != 0 {
		t.Fatalf("requestMore allocates %v objects per window, want 0", allocs)
	}
}

// TestClaimsCountAndRelease holds nclaimed to the dense claims: an endgame
// re-request moves a claim without counting it twice, and releasing one
// peer's claims leaves the others'.
func TestClaimsCountAndRelease(t *testing.T) {
	_, s := buildSwarm(4, 64, 22)
	p := s.peers[1]
	p.claim(3, 2)
	p.claim(4, 2)
	p.claim(5, 3)
	p.claim(4, 3) // endgame: asked again elsewhere
	if p.nclaimed != 3 {
		t.Fatalf("nclaimed = %d after three distinct claims, want 3", p.nclaimed)
	}
	p.releaseClaims(3)
	if p.nclaimed != 1 || p.claimed[3] != claimTag(2) || p.claimed[4] != 0 || p.claimed[5] != 0 {
		t.Fatalf("after releasing peer 3: nclaimed %d, claims %v", p.nclaimed, p.claimed[3:6])
	}
	p.unclaim(3)
	p.unclaim(3)
	if p.nclaimed != 0 {
		t.Fatalf("nclaimed = %d after every claim went, want 0", p.nclaimed)
	}
}
