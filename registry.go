package bulletprime

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"bulletprime/internal/harness"
	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// The protocol and network registries make the experiment façade open:
// RunConfig.Protocol and RunConfig.Network resolve through them instead of
// switch statements, so a downstream package can plug in a new
// dissemination system or emulated environment and round-trip it through
// New/Run/Sweep without touching any internals. The four paper systems and
// six paper presets self-register at init.

// System is one protocol session driven by the harness: Start begins
// dissemination, Complete reports whether every receiver finished, DoneAt
// is the completion time of the last. Registered protocol builders return
// one.
type System = harness.System

// BuildContext carries what a protocol builder needs to construct a
// session: the rig (engine, emulated network, runtime, seeded RNG), the
// workload, and the session contract — the cohort (Members, Source), the
// file, and the OnComplete and OnBlock callbacks. Builders must call
// OnComplete once per finished receiver and should call OnBlock for every
// novel block.
type BuildContext = harness.BuildCtx

// SystemBuilder constructs a protocol session from a build context.
type SystemBuilder = harness.SystemBuilder

// TopologyFn builds a concrete emulated topology from a seeded RNG, so
// topology draws are reproducible per seed.
type TopologyFn = func(*sim.RNG) *netem.Topology

// NetworkBuilder returns the topology generator for an overlay of the
// given size. Registered networks are invoked once per run with the
// validated node count.
type NetworkBuilder func(nodes int) TopologyFn

var (
	registryMu sync.RWMutex
	protocols  = make(map[Protocol]string) // façade name -> harness system name
	networks   = make(map[NetworkPreset]NetworkBuilder)
)

// RegisterProtocol adds a dissemination system to the open registry under
// the given RunConfig.Protocol name. It panics on an empty name, nil
// builder, or duplicate — registration is an init-time act, like
// http.Handle.
func RegisterProtocol(name Protocol, build SystemBuilder) {
	if name == "" {
		panic("bulletprime: RegisterProtocol with empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := protocols[name]; dup {
		panic(fmt.Sprintf("bulletprime: protocol %q already registered", name))
	}
	// The harness registry rejects nil builders and duplicate system names.
	harness.RegisterSystem(string(name), harness.SystemEntry{Build: build})
	protocols[name] = string(name)
}

// RegisterNetwork adds an emulated environment to the open registry under
// the given RunConfig.Network name. Same panic rules as RegisterProtocol.
func RegisterNetwork(name NetworkPreset, build NetworkBuilder) {
	if name == "" {
		panic("bulletprime: RegisterNetwork with empty name")
	}
	if build == nil {
		panic("bulletprime: RegisterNetwork with nil builder")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := networks[name]; dup {
		panic(fmt.Sprintf("bulletprime: network %q already registered", name))
	}
	networks[name] = build
}

// Protocols lists every protocol name New accepts, sorted.
func Protocols() []Protocol { return registered(protocols) }

// Networks lists every registered network preset, sorted.
func Networks() []NetworkPreset { return registered(networks) }

func registered[K ~string, V any](registry map[K]V) []K {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return slices.Sorted(maps.Keys(registry))
}

// lookupProtocol resolves a façade protocol name to its harness system
// name.
func lookupProtocol(name Protocol) (string, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	sys, ok := protocols[name]
	return sys, ok
}

// lookupNetwork resolves a network preset to its builder.
func lookupNetwork(name NetworkPreset) (NetworkBuilder, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := networks[name]
	return b, ok
}

// The four paper systems already self-register in the harness under their
// ProtoKind names; here they get their façade names. The six paper presets
// register their topology generators directly.
func init() {
	for name, sys := range map[Protocol]harness.ProtoKind{
		ProtocolBulletPrime: harness.KindBulletPrime,
		ProtocolBullet:      harness.KindBullet,
		ProtocolBitTorrent:  harness.KindBitTorrent,
		ProtocolSplitStream: harness.KindSplitStream,
	} {
		protocols[name] = sys.String()
	}
	// ProtocolStream is Bullet' with delay-gradient sender selection; the
	// harness registers the system itself (it is a core.Config flip, not a
	// new session type).
	protocols[ProtocolStream] = "BulletPrimeDelay"
	// The sharded engine's reference workload keeps its harness name.
	protocols[ProtocolScalefill] = string(ProtocolScalefill)
	networks[NetworkModelNet] = func(n int) TopologyFn { return harness.ModelNetTopology(n) }
	networks[NetworkModelNetClean] = func(n int) TopologyFn { return harness.LosslessModelNetTopology(n) }
	networks[NetworkConstrained] = func(n int) TopologyFn { return harness.ConstrainedAccessTopology(n) }
	networks[NetworkHighBDP] = func(n int) TopologyFn { return harness.HighBDPTopology(n, 0, 0) }
	networks[NetworkPlanetLab] = func(n int) TopologyFn { return harness.PlanetLabTopology(n) }
	networks[NetworkClustered] = func(n int) TopologyFn { return harness.ClusteredTopology(n, 0) }
	networks[NetworkClusteredCompact] = func(n int) TopologyFn { return harness.ClusteredTopologyCompact(n, 0) }
	// The testbed is not an emulated environment: its topology only shapes
	// the overlay (node count, membership) — traffic rides real UDP sockets
	// (internal/testbed), routed there by the spec's TestbedSpec. A neutral
	// lossless topology keeps overlay construction identical to clean
	// emulated runs.
	networks[NetworkTestbedUDP] = func(n int) TopologyFn { return harness.LosslessModelNetTopology(n) }
}
