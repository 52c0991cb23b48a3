package harness

import (
	"fmt"
	"slices"
	"sync"

	"bulletprime/internal/bittorrent"
	"bulletprime/internal/bullet"
	"bulletprime/internal/core"
	"bulletprime/internal/proto"
	"bulletprime/internal/splitstream"
)

// BuildCtx carries everything a protocol needs to construct one session on
// a rig: the session contract, the workload, and per-system knobs. A builder
// hands Swarm to its session whole (the four paper systems embed it in their
// Config): completion-time recording depends on its OnComplete, and
// observers see block arrivals only through its OnBlock.
type BuildCtx struct {
	Rig      *Rig
	Workload Workload
	// CoreMut tweaks Bullet' config (strategies, static peers, outstanding
	// limits); builders for other systems may ignore it.
	CoreMut func(*core.Config)
	// Swarm is the session contract, filled by the harness: Members is the
	// session cohort and Source its first member, the file comes from
	// Workload, StreamBps is the live source's pacing rate on a stream run
	// (0 otherwise), OnComplete records a node's completion time on the
	// rig, and OnBlock is the rig's door for novel block arrivals. Builders
	// that honor StreamBps register with SystemEntry.Streams set;
	// SweepSpec.Check keeps a stream away from the others, which would
	// silently run one-shot.
	proto.Swarm
	// StreamSuffix distinguishes the RNG streams of concurrent sessions
	// (flash-crowd waves) on one rig; empty for the classic single session.
	StreamSuffix string
}

// SystemBuilder constructs a protocol session from a build context. Third
// parties register builders with RegisterSystem to plug new protocols into
// the harness (and, via the bulletprime façade, into RunConfig.Protocol)
// without touching any switch statement.
type SystemBuilder func(BuildCtx) System

// ShardBuildCtx carries what a sharded protocol needs to construct one
// session: the rig (slots, plan, group) and the workload.
type ShardBuildCtx struct {
	Rig      *ShardedRig
	Workload Workload
}

// ShardSystemBuilder constructs a protocol session across a sharded rig's
// slots rather than on a single rig; shards reach each other only through
// sim.Shard.Post.
type ShardSystemBuilder func(ShardBuildCtx) ShardSystem

// SystemEntry is one row of the system registry: how the system builds on
// each rig shape, and what its builder honors. A nil builder means the
// system does not exist on that rig shape; SweepSpec.Check turns the
// mismatch into an error before anything is built.
type SystemEntry struct {
	// Build constructs a session on one Rig: the sequential engine and the
	// testbed.
	Build SystemBuilder
	// BuildSharded constructs a session across a ShardedRig's slots.
	BuildSharded ShardSystemBuilder
	// Streams reports that Build honors BuildCtx.StreamBps.
	Streams bool
}

var (
	systemsMu sync.RWMutex
	systems   = make(map[string]SystemEntry)
)

// RegisterSystem adds a named protocol to the open registry. It panics on
// an empty name, an entry without a builder, or duplicate registration —
// registration is an init-time programming act, like http.Handle.
func RegisterSystem(name string, e SystemEntry) {
	if name == "" {
		panic("harness: RegisterSystem with empty name")
	}
	if e.Build == nil && e.BuildSharded == nil {
		panic("harness: RegisterSystem with nil builder")
	}
	systemsMu.Lock()
	defer systemsMu.Unlock()
	if _, dup := systems[name]; dup {
		panic(fmt.Sprintf("harness: system %q already registered", name))
	}
	systems[name] = e
}

// LookupSystem returns the registry entry for name, or false.
func LookupSystem(name string) (SystemEntry, bool) {
	systemsMu.RLock()
	defer systemsMu.RUnlock()
	e, ok := systems[name]
	return e, ok
}

// SystemNames lists every registered system, sorted.
func SystemNames() []string {
	systemsMu.RLock()
	defer systemsMu.RUnlock()
	names := make([]string, 0, len(systems))
	for n := range systems {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// The four paper systems self-register under their ProtoKind.String()
// names, so the figure table's kinds resolve through the same registry as
// third-party protocols.
func init() {
	RegisterSystem(KindBulletPrime.String(), SystemEntry{Build: buildBulletPrime, Streams: true})
	RegisterSystem(KindBullet.String(), SystemEntry{Build: buildBullet, Streams: true})
	RegisterSystem(KindBitTorrent.String(), SystemEntry{Build: buildBitTorrent})
	RegisterSystem(KindSplitStream.String(), SystemEntry{Build: buildSplitStream})
}

func buildBulletPrime(ctx BuildCtx) System {
	cfg := core.Config{Swarm: ctx.Swarm, Strategy: core.RarestRandom}
	if ctx.CoreMut != nil {
		ctx.CoreMut(&cfg)
	}
	return core.NewSession(ctx.Rig.RT, cfg, ctx.Rig.Master.Stream("bulletprime"+ctx.StreamSuffix))
}

func buildBullet(ctx BuildCtx) System {
	return bullet.NewSession(ctx.Rig.RT, bullet.Config{Swarm: ctx.Swarm},
		ctx.Rig.Master.Stream("bullet"+ctx.StreamSuffix))
}

func buildBitTorrent(ctx BuildCtx) System {
	return bittorrent.NewSession(ctx.Rig.RT, bittorrent.Config{Swarm: ctx.Swarm},
		ctx.Rig.Master.Stream("bittorrent"+ctx.StreamSuffix))
}

func buildSplitStream(ctx BuildCtx) System {
	return splitstream.NewSession(ctx.Rig.RT, splitstream.Config{Swarm: ctx.Swarm},
		ctx.Rig.Master.Stream("splitstream"+ctx.StreamSuffix))
}

// DuplicateCounter is an optional System extension: sessions that track
// duplicate block deliveries expose them for the observer's
// useful-vs-duplicate byte accounting. All four paper systems implement it.
type DuplicateCounter interface {
	DuplicateBlocks() int
}

// SystemDuplicates returns the system's duplicate-block count, descending
// into flash-crowd wave sessions; systems without the extension report 0.
func SystemDuplicates(sys System) int {
	switch s := sys.(type) {
	case DuplicateCounter:
		return s.DuplicateBlocks()
	case *waveSystem:
		total := 0
		for i := range s.waves {
			total += SystemDuplicates(s.waves[i].sys)
		}
		return total
	}
	return 0
}
