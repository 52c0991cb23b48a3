package bittorrent

import (
	"testing"

	"bulletprime/internal/proto"
)

func TestChokeReleasesClaims(t *testing.T) {
	_, s := buildSwarm(4, 32, 10)
	p := s.peers[1]
	bc := &btConn{id: 2, remotePieces: s.peers[2].pieces.Clone()}
	p.conns.Insert(bc)
	p.claims.Claim(5, 2)
	p.claims.Claim(6, 2)
	p.claims.Claim(7, 3) // claimed elsewhere: untouched
	bc.outstanding = 2
	// Deliver a choke through the dispatch path.
	c := p.node.Dial(2)
	c.SetState(p.node, bc)
	p.onMessage(c, proto.Message{Kind: kindChoke})
	if bc.outstanding != 0 {
		t.Fatalf("outstanding = %d after choke, want 0", bc.outstanding)
	}
	if p.claims.Held(5) {
		t.Fatal("claim on choked peer not released")
	}
	if !p.claims.HeldBy(7, 3) {
		t.Fatal("unrelated claim disturbed")
	}
}

func TestServeRefusesWhenChoking(t *testing.T) {
	eng, s := buildSwarm(3, 32, 11)
	src := s.peers[0]
	c := src.node.Dial(1)
	bc := &btConn{id: 1, conn: c, remotePieces: src.pieces.Clone(), amChoking: true}
	src.conns.Insert(bc)
	c.SetState(src.node, bc)
	before := c.QueueLen(src.node)
	src.serve(bc, 0)
	if c.QueueLen(src.node) != before {
		t.Fatal("choked peer was served")
	}
	bc.amChoking = false
	src.serve(bc, 0)
	if c.QueueLen(src.node) == before {
		t.Fatal("unchoked peer was not served")
	}
	_ = eng
}

func TestServeIgnoresMissingBlocks(t *testing.T) {
	_, s := buildSwarm(3, 32, 12)
	p := s.peers[1] // leecher: has nothing yet
	c := p.node.Dial(2)
	bc := &btConn{id: 2, conn: c, remotePieces: p.pieces.Clone()}
	p.conns.Insert(bc)
	c.SetState(p.node, bc)
	before := c.QueueLen(p.node)
	p.serve(bc, 0)
	p.serve(bc, -1)
	p.serve(bc, 99999)
	if c.QueueLen(p.node) != before {
		t.Fatal("served a block it does not hold (or out of range)")
	}
}

func TestRarestFirstPieceSelection(t *testing.T) {
	_, s := buildSwarm(4, 64, 13) // 4 pieces of 16 blocks
	p := s.peers[1]
	bc := &btConn{id: 2, remotePieces: proto.NewBitmap(s.numPieces)}
	// Remote has pieces 1 and 3.
	bc.remotePieces.Set(1)
	bc.remotePieces.Set(3)
	p.conns.Insert(bc)
	// Piece 1 is common (3 holders), piece 3 is rare (1 holder).
	p.pieceAvail[1] = 3
	p.pieceAvail[3] = 1
	block, ok := p.pickBlock(bc)
	if !ok {
		t.Fatal("no block picked")
	}
	if s.pieceOf(block) != 3 {
		t.Fatalf("picked block %d from piece %d, want rare piece 3", block, s.pieceOf(block))
	}
}

func TestActivePiecePriority(t *testing.T) {
	_, s := buildSwarm(4, 64, 14)
	p := s.peers[1]
	bc := &btConn{id: 2, remotePieces: proto.NewBitmap(s.numPieces)}
	for i := 0; i < s.numPieces; i++ {
		bc.remotePieces.Set(i)
	}
	p.conns.Insert(bc)
	// Piece 2 is partially downloaded: strict priority over new pieces.
	p.blocks.Add(32, 0)
	p.activePieces[2] = true
	block, ok := p.pickBlock(bc)
	if !ok || s.pieceOf(block) != 2 {
		t.Fatalf("picked piece %d, want active piece 2", s.pieceOf(block))
	}
}

func TestEndgameAllowsReRequest(t *testing.T) {
	_, s := buildSwarm(3, 32, 15)
	p := s.peers[1]
	for b := 0; b < 30; b++ {
		p.blocks.Add(b, 0)
	}
	p.claims.Claim(30, 2)
	p.claims.Claim(31, 2)
	bc3 := &btConn{id: 3, remotePieces: proto.NewBitmap(s.numPieces)}
	for i := 0; i < s.numPieces; i++ {
		bc3.remotePieces.Set(i)
	}
	p.conns.Insert(bc3)
	p.activePieces[1] = true
	block, ok := p.pickBlock(bc3)
	if !ok {
		t.Fatal("endgame pick failed")
	}
	if block != 30 && block != 31 {
		t.Fatalf("endgame picked %d, want an in-flight block", block)
	}
}

func TestHaveFloodUpdatesAvailability(t *testing.T) {
	eng, s := buildSwarm(6, 32, 16)
	s.Start()
	eng.RunUntil(600)
	if !s.Complete() {
		t.Fatal("swarm incomplete")
	}
	// After completion every peer should have seen HAVEs or bitfields
	// marking its connected peers' pieces.
	for id, p := range s.peers {
		for _, bc := range p.conns {
			count := 0
			for i := 0; i < s.numPieces; i++ {
				if bc.remotePieces.Get(i) {
					count++
				}
			}
			if count == 0 {
				t.Fatalf("node %d never learned peer %d's pieces", id, bc.id)
			}
		}
	}
}
