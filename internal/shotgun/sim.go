package shotgun

import (
	"sort"

	"bulletprime/internal/core"
	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
	"bulletprime/internal/sim"
)

// Simulation of the Figure 15 experiment: one 24 MB update bundle pushed to
// a PlanetLab-like node set, Shotgun (bundle over Bullet') versus N
// staggered parallel rsync sessions from the central server.

// DiskFactor is the replay-to-download time ratio the paper measured ("most
// nodes spent twice as much time replaying the rsync logs locally than they
// spent downloading the data").
const DiskFactor = 2.0

// rsyncStartupCost models per-session ssh setup plus the server-side file
// scan, in seconds.
const rsyncStartupCost = 2.0

// SimResult holds per-node timings for one synchronization run.
type SimResult struct {
	DownloadDone map[netem.NodeID]sim.Time // data fully received
	UpdateDone   map[netem.NodeID]sim.Time // deltas replayed to disk
}

// Times returns the sorted completion times for CDF plotting, using update
// completion when withUpdate is set and bare download completion otherwise.
func (r *SimResult) Times(withUpdate bool) []float64 {
	src := r.DownloadDone
	if withUpdate {
		src = r.UpdateDone
	}
	out := make([]float64, 0, len(src))
	for _, t := range src {
		out = append(out, float64(t))
	}
	sort.Float64s(out)
	return out
}

// RunShotgun disseminates a bundle of the given size with Bullet' and
// models local replay at DiskFactor times each node's download duration.
// The engine is run to completion internally.
func RunShotgun(eng *sim.Engine, rt *proto.Runtime, members []netem.NodeID, source netem.NodeID,
	bundleBytes float64, blockSize float64, rng *sim.RNG, deadline sim.Time) *SimResult {

	res := &SimResult{
		DownloadDone: make(map[netem.NodeID]sim.Time),
		UpdateDone:   make(map[netem.NodeID]sim.Time),
	}
	numBlocks := int(bundleBytes/blockSize) + 1
	cfg := core.Config{Swarm: proto.Swarm{
		Source:    source,
		Members:   members,
		NumBlocks: numBlocks,
		BlockSize: blockSize,
		OnComplete: func(id netem.NodeID) {
			now := eng.Now()
			res.DownloadDone[id] = now
			// Replay cost scales with download time per the paper's
			// measurement; apply it as a local disk-bound phase.
			replay := float64(now) * (DiskFactor - 1)
			if replay < 1 {
				replay = 1
			}
			eng.After(replay, func() {
				res.UpdateDone[id] = eng.Now()
			})
		},
	}, Strategy: core.RarestRandom}
	sess := core.NewSession(rt, cfg, rng)
	sess.Start()
	eng.RunUntil(deadline)
	return res
}

// RunParallelRsync models the baseline: the source runs at most `parallel`
// simultaneous rsync sessions; each session transfers the bundle bytes
// (deltas plus signature exchange) point-to-point, then the node replays
// locally. Sessions are started in node-id order as slots free up
// (the staggered approach of §4.8). Server-side CPU/disk contention is
// modelled by scaling each session's startup cost with the number of
// concurrently running sessions.
func RunParallelRsync(eng *sim.Engine, net *netem.Network, members []netem.NodeID, source netem.NodeID,
	bundleBytes float64, parallel int, deadline sim.Time) *SimResult {

	res := &SimResult{
		DownloadDone: make(map[netem.NodeID]sim.Time),
		UpdateDone:   make(map[netem.NodeID]sim.Time),
	}
	var queue []netem.NodeID
	for _, id := range members {
		if id != source {
			queue = append(queue, id)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })

	running := 0
	var startNext func()
	startNext = func() {
		for running < parallel && len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			running++
			target := id
			start := eng.Now()
			// Startup: ssh handshake plus server-side scan, stretched by
			// concurrent sessions competing for the source's CPU and disk.
			startup := rsyncStartupCost * float64(running)
			eng.After(startup, func() {
				f := net.NewFlow(source, target)
				// Signature exchange upstream is small; the dominant cost
				// is the delta payload downstream.
				f.Start(bundleBytes, func() {
					prop := net.Topo.OneWayDelay(source, target)
					eng.After(prop, func() {
						now := eng.Now()
						res.DownloadDone[target] = now
						replay := float64(now-start) * (DiskFactor - 1)
						if replay < 1 {
							replay = 1
						}
						eng.After(replay, func() {
							res.UpdateDone[target] = eng.Now()
						})
						f.Close()
						running--
						startNext()
					})
				})
			})
		}
	}
	startNext()
	eng.RunUntil(deadline)
	return res
}
