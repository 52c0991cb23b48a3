package proto

import (
	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// Swarm is the session contract every dissemination protocol keeps with
// whoever runs it: the cohort and the file, the two callbacks that report
// progress, and the accounting behind a completion-time CDF, done the same
// way for every protocol. A block arrival is novel or a duplicate, each
// receiver completes once, and the session is done when every receiver has.
// Bullet', Bullet, BitTorrent and SplitStream embed it in their Config and
// their Session, so the systems a figure compares are measured by the same
// code.
type Swarm struct {
	// Source is the node that initially holds the file.
	Source netem.NodeID
	// Members lists every participant including the source.
	Members []netem.NodeID
	// NumBlocks and BlockSize define the file. BlockSize is 16 KB in the
	// paper's ModelNet runs and 100 KB on PlanetLab.
	NumBlocks int
	BlockSize float64
	// StreamBps, when > 0, makes the source a live stream: block i is
	// released (and becomes pushable and advertisable) at
	// i*BlockSize/StreamBps seconds after the session starts instead of
	// the whole file existing at t=0. See Release.
	StreamBps float64

	// OnBlock, if set, fires for every novel block arrival at a node, with
	// the number of blocks the node now holds.
	OnBlock func(node netem.NodeID, blockID int, count int)
	// OnComplete, if set, fires once per receiver when its download
	// finishes.
	OnComplete func(node netem.NodeID)

	// Duplicates counts block arrivals at a node that already held the
	// block.
	Duplicates int
	completed  int
	doneAt     sim.Time
	released   int // live blocks the source has emitted
}

// Release is a live source's release step. It emits the next block of the
// stream and returns its id, with the delay after which the source calls
// it again: one block interval, BlockSize/StreamBps, or 0 after the last
// block. Once the whole stream is out it returns id -1.
func (s *Swarm) Release() (id int, next float64) {
	if s.released >= s.NumBlocks {
		return -1, 0
	}
	id = s.released
	s.released++
	if s.released < s.NumBlocks {
		next = s.BlockSize / s.StreamBps
	}
	return id, next
}

// Pushable returns how many blocks, from id 0 up, the source may push: the
// whole file, or for a live stream only the blocks released so far.
func (s *Swarm) Pushable() int {
	if s.StreamBps > 0 {
		return s.released
	}
	return s.NumBlocks
}

// Arrived is the arrival step. novel reports whether node's store took
// block id just now; a novel block goes to OnBlock with the count the store
// holds, a repeat counts as a duplicate. It returns novel.
func (s *Swarm) Arrived(node netem.NodeID, id int, store *BlockStore, novel bool) bool {
	if !novel {
		s.Duplicates++
		return false
	}
	if s.OnBlock != nil {
		s.OnBlock(node, id, store.Count())
	}
	return true
}

// Completed is the completion step: receiver node finished its download at
// now. The protocol calls it once per receiver.
func (s *Swarm) Completed(node netem.NodeID, now sim.Time) {
	s.completed++
	if s.OnComplete != nil {
		s.OnComplete(node)
	}
	if s.Complete() {
		s.doneAt = now
	}
}

// Complete reports whether every non-source member has finished.
func (s *Swarm) Complete() bool { return s.completed >= len(s.Members)-1 }

// DoneAt returns the time the last receiver finished (zero until Complete).
func (s *Swarm) DoneAt() sim.Time { return s.doneAt }

// DuplicateBlocks reports duplicate block deliveries across all nodes
// (harness.DuplicateCounter).
func (s *Swarm) DuplicateBlocks() int { return s.Duplicates }
