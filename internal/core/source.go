package core

import "bulletprime/internal/proto"

// Source sending strategy (§3.3.5): the source iterates over file blocks,
// sending each block once to one of its control-tree children, round-robin,
// skipping children whose pipes are full so bandwidth is never wasted
// forcing a block on a node that is not ready. Only after every block has
// been handed out once does the source advertise itself in RanSub, at which
// point arbitrary nodes may pull from it like any other peer.

// pushQueueDepth is the per-child cap on queued pushed blocks. Small enough
// that a slow child does not hoard unsent blocks, large enough to keep its
// pipe busy between pump rounds.
const pushQueueDepth = 3

// pushPumpInterval is how often the source tops up child queues (seconds).
const pushPumpInterval = 0.05

// startPushing begins the periodic push pump. A live-stream source
// (Config.StreamBps) first starts the pacing timer that releases blocks at
// the target bitrate; the pump then never runs ahead of the live edge.
func (p *peer) startPushing() {
	if p.s.cfg.StreamBps > 0 {
		// A live source is always at its live edge: the §3.3.5
		// pushed-entire-file gate has no meaning for a stream that is
		// still being produced, so advertise in RanSub from the start.
		p.pushedOnce = true
		p.releaseStreamBlock()
		return
	}
	if len(p.rs.Children()) == 0 {
		p.pushedOnce = true
		return
	}
	p.pushPump()
}

// releaseStreamBlock emits the next live block (proto.Swarm.Release): block
// i enters the source store at i*BlockSize/StreamBps. Receivers hear about
// it through the normal self-clocked diff path, and the push pump may now
// hand it to a tree child.
func (p *peer) releaseStreamBlock() {
	id, next := p.s.Release()
	if id < 0 {
		return
	}
	p.hold(id, p.s.rt.Now())
	// Self-clocked diffs (§3.3.4): idle receivers hear about the new
	// block immediately; in the periodic-diff ablation the timers do it.
	if p.s.cfg.PeriodicDiffs <= 0 {
		for _, rp := range p.receivers {
			if rp.conn.QueueLen(p.node) == 0 {
				p.sendDiff(rp, false)
			}
		}
	}
	if next > 0 {
		p.s.rt.AfterEvent(next, p, evStreamRelease, nil)
	}
	p.pushPump()
}

// pushPump tops up each child queue with the next unsent blocks.
func (p *peer) pushPump() {
	if p.s.Complete() {
		return // every receiver is done; stop generating events
	}
	children := p.rs.Children()
	if len(children) == 0 {
		return
	}
	total := p.s.Pushable()
	if p.s.cfg.Encoded {
		// Encoded mode: a continuous stream of fresh block ids, bounded
		// only by store capacity (§2.2 digital-fountain behaviour).
		total = p.s.maxBlockID()
	}
	child := 0
	for p.nextPush < total {
		sent := false
		for try := 0; try < len(children); try++ {
			c := children[child]
			child = (child + 1) % len(children)
			if c.Closed() || c.QueueLen(p.node) >= pushQueueDepth {
				continue
			}
			id := p.nextPush
			if p.s.cfg.Encoded && !p.store.Have(id) {
				p.hold(id, p.s.rt.Now()) // generate on demand
			}
			bm := p.s.blocks.Get()
			bm.id = id
			c.Send(p.node, proto.Message{Kind: kindPush, Size: p.s.cfg.BlockSize + 16, Payload: bm})
			p.s.BlocksPushed++
			p.nextPush++
			sent = true
			break
		}
		if !sent {
			break // all pipes full; retry next pump
		}
	}
	if p.nextPush >= p.s.cfg.NumBlocks && !p.pushedOnce {
		// Entire file handed out once: advertise in RanSub (§3.3.5).
		p.pushedOnce = true
	}
	if p.nextPush < total {
		p.pushEvent = p.s.rt.AfterEvent(pushPumpInterval, p, evPushPump, nil)
	}
}

// onPush receives a source-pushed block at a control-tree child.
func (p *peer) onPush(c *proto.Conn, bm *blockMsg) {
	p.acceptBlock(bm.id)
}
