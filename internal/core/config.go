// Package core implements Bullet' (Bullet prime), the paper's primary
// contribution: a mesh-based high-bandwidth data dissemination protocol
// that keeps each node's incoming pipe full of useful data under static and
// dynamic network conditions (paper §3).
//
// Architecture (paper Figure 1): an overlay control tree is used for
// joining and control traffic; RanSub distributes changing uniformly random
// subsets of per-node file summaries over that tree every 5 s; the source
// pushes file blocks to its control-tree children; every other node uses
// the RanSub candidates to assemble and continuously adapt a mesh of
// senders and receivers from which blocks are explicitly pulled.
//
// The three adaptive mechanisms the paper evaluates individually live here:
//
//   - ManageSenders/ManageReceivers (§3.3.1, Figure 2): hill-climbing on
//     the number of peers, plus 1.5-standard-deviation trimming of
//     underperforming peers.
//   - Request strategies (§3.3.2): first-encountered, random, rarest,
//     rarest-random over per-sender availability lists.
//   - ManageOutstanding (§3.3.3, Figure 3): an XCP-derived controller
//     (α = 0.4, β = 0.226) on the number of per-peer outstanding block
//     requests, driven by sender-reported "in front" and "wasted" values.
package core

import (
	"errors"
	"fmt"

	"bulletprime/internal/proto"
)

// RequestStrategy selects the order in which known-available blocks are
// requested from each sender (paper §3.3.2).
type RequestStrategy int

const (
	// FirstEncountered requests blocks in the order their availability was
	// learned. The paper's worst performer: all nodes proceed in lockstep.
	FirstEncountered RequestStrategy = iota
	// Random requests available blocks in uniformly random order.
	Random
	// Rarest requests the block with the fewest known holders among the
	// node's peers, ties broken deterministically (lowest id).
	Rarest
	// RarestRandom requests uniformly at random among the blocks of
	// highest rarity — Bullet's default.
	RarestRandom
)

// String returns the paper's name for the strategy.
func (s RequestStrategy) String() string {
	switch s {
	case FirstEncountered:
		return "first"
	case Random:
		return "random"
	case Rarest:
		return "rarest"
	case RarestRandom:
		return "rarest-random"
	}
	return "unknown"
}

// Peering behaviour constants from §3.3.1.
const (
	// DefaultPeerTarget is the initial MAX_SENDERS / MAX_RECEIVERS.
	DefaultPeerTarget = 10
	// MinPeers and MaxPeers are Bullet's hard limits on the per-node
	// number of senders and receivers.
	MinPeers = 6
	MaxPeers = 25
	// TrimSigma is the number of standard deviations below the mean
	// bandwidth at which a peer is disconnected.
	TrimSigma = 1.5
)

// Flow-control constants from §3.3.3 (XCP's stable parameter choice).
const (
	// AlphaWasted converts sender-reported wasted/service time into a
	// block-count adjustment.
	AlphaWasted = 0.4
	// BetaQueued converts excess sender-queue depth into a block-count
	// decrease.
	BetaQueued = 0.226
	// InitialOutstanding is the starting per-peer outstanding request
	// limit: one block arriving, one in flight, one being requested.
	InitialOutstanding = 3
)

// Config parameterizes one Bullet' session.
type Config struct {
	// Swarm is the cohort, the file, the live stream's rate (StreamBps,
	// incompatible with Encoded) and the progress callbacks.
	proto.Swarm

	// Strategy is the request ordering policy; Bullet' uses RarestRandom.
	Strategy RequestStrategy

	// StaticPeers, when > 0, disables adaptive peer-set sizing and pins
	// MAX_SENDERS = MAX_RECEIVERS = StaticPeers (the paper's fixed-peer
	// comparison runs). MinPeers/MaxPeers clamping is also bypassed; the
	// value itself must be in [0, 255].
	StaticPeers int

	// StaticOutstanding, when > 0, disables the ManageOutstanding
	// controller and pins the per-peer outstanding block limit.
	StaticOutstanding int

	// MaxSendersCap, when > 0, caps MAX_SENDERS (Figure 10/11 use 5).
	MaxSendersCap int

	// PeriodicDiffs, when > 0, replaces Bullet's self-clocked diff
	// sending (§3.3.4) with fixed-interval timers of the given period in
	// seconds — the design alternative the paper rejects, kept for
	// ablation (see BenchmarkAblationDiffClocking).
	PeriodicDiffs float64

	// Encoded enables source fountain coding: the source pushes a
	// continuous stream of encoded blocks and receivers finish after
	// collecting NumBlocks*(1+EncodingOverhead) distinct blocks (§2.2,
	// §4.6 methodology, matching the paper's fixed 4% overhead accounting).
	Encoded          bool
	EncodingOverhead float64
}

// maxStaticPeers bounds Config.StaticPeers: a peer counts the senders
// advertising each block in one byte (peer.rarity).
const maxStaticPeers = 255

// errStaticPeersRange is withDefaults' error for a StaticPeers outside
// [0, maxStaticPeers].
var errStaticPeersRange = errors.New("core: StaticPeers must be in [0, 255]")

// withDefaults fills unset fields and rejects values no session can run.
func (c Config) withDefaults() (Config, error) {
	if c.StaticPeers < 0 || c.StaticPeers > maxStaticPeers {
		return c, fmt.Errorf("%w, got %d", errStaticPeersRange, c.StaticPeers)
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 16 * 1024
	}
	if c.EncodingOverhead <= 0 {
		c.EncodingOverhead = 0.04
	}
	return c, nil
}

// goalBlocks returns the number of distinct blocks a receiver needs.
func (c Config) goalBlocks() int {
	if !c.Encoded {
		return c.NumBlocks
	}
	return int(float64(c.NumBlocks) * (1 + c.EncodingOverhead))
}
