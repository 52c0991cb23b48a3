package shotgun

import (
	"sort"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// The Figure 15 experiment: one 24 MB update bundle pushed to a
// PlanetLab-like node set, Shotgun (the bundle as a Bullet' download, then a
// local replay) versus N staggered parallel rsync sessions from the central
// server. Shotgun's download is an ordinary Bullet' run; this file holds what
// is Shotgun's own: the replay both legs pay, and the rsync baseline.

// DiskFactor is the replay-to-download time ratio the paper measured ("most
// nodes spent twice as much time replaying the rsync logs locally than they
// spent downloading the data").
const DiskFactor = 2.0

// rsyncStartupCost models per-session ssh setup plus the server-side file
// scan, in seconds.
const rsyncStartupCost = 2.0

// Replay returns when a node whose download of the deltas ran from start to
// done has replayed them to disk: DiskFactor times the download span later,
// and at least a second. A Shotgun download starts at 0; an rsync session
// starts when the server opens it.
func Replay(start, done float64) float64 {
	replay := float64((done - start) * DiskFactor)
	if replay < 1 {
		replay = 1
	}
	return done + replay
}

// RunParallelRsync models the baseline and returns the sorted update times
// of the nodes whose download finished by the deadline: the source runs at
// most `parallel` simultaneous rsync sessions; each session transfers the
// bundle bytes (deltas plus signature exchange) point-to-point, then the
// node replays locally. Sessions are started in node-id order as slots free
// up (the staggered approach of §4.8). Server-side CPU/disk contention is
// modelled by scaling each session's startup cost with the number of
// concurrently running sessions.
func RunParallelRsync(eng *sim.Engine, net *netem.Network, members []netem.NodeID, source netem.NodeID,
	bundleBytes float64, parallel int, deadline sim.Time) []float64 {

	var updates []float64
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
						updates = append(updates, Replay(float64(start), float64(eng.Now())))
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
	sort.Float64s(updates)
	return updates
}
