// Softwareupdate: the Shotgun workflow end-to-end (§4.8). A developer has
// updated a software image and wants every node in a 40-node testbed to
// catch up. The example:
//
//  1. builds two in-memory directory images (v1 and v2, with edits, a new
//     file and a deletion),
//
//  2. computes the rsync-style batch delta bundle with real rolling
//     checksums,
//
//  3. verifies the bundle reproduces v2 exactly when applied to v1,
//
//  4. simulates disseminating the bundle two ways on the same
//     PlanetLab-like topology: Shotgun, one Bullet' session through the
//     public façade followed by each node's local replay of the deltas, and
//     staggered parallel rsync from the central server, printing the
//     speedup.
//
//     go run ./examples/softwareupdate
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"maps"
	"math/rand"
	"os"
	"slices"

	"bulletprime"
	"bulletprime/internal/harness"
	"bulletprime/internal/shotgun"
	"bulletprime/internal/sim"
	"bulletprime/internal/trace"
)

func main() { run(os.Stdout) }

// run writes the update's delta, check and dissemination times to w.
func run(w io.Writer) {
	// 1. Two software images: 60 files of 256 KB; v2 edits 1 in 4 files,
	// adds one, deletes one.
	rng := rand.New(rand.NewSource(42))
	v1 := make(map[string][]byte)
	for i := 0; i < 60; i++ {
		data := make([]byte, 256<<10)
		rng.Read(data)
		v1[fmt.Sprintf("bin/module%02d.so", i)] = data
	}
	// The edits draw from rng, so v1 is walked in key order: map order would
	// make the edits, and every number below, differ from run to run.
	v2 := make(map[string][]byte, len(v1))
	total := 0
	for _, p := range slices.Sorted(maps.Keys(v1)) {
		nd := append([]byte(nil), v1[p]...)
		if rng.Intn(4) == 0 {
			for k := 0; k < 3; k++ {
				off := rng.Intn(len(nd) - 64)
				rng.Read(nd[off : off+64])
			}
		}
		v2[p] = nd
		total += len(nd)
	}
	v2["bin/brandnew.so"] = bytes.Repeat([]byte("new code "), 4<<10)
	delete(v2, "bin/module00.so")

	// 2. Batch delta.
	bundle := shotgun.BuildBundle(2, v1, v2, 2048)
	fmt.Fprintf(w, "image size: %.1f MB across %d files\n", float64(total)/1e6, len(v1))
	fmt.Fprintf(w, "delta bundle: %.2f MB (%d changed files, %d deleted)\n",
		float64(bundle.WireSize())/1e6, len(bundle.Files), len(bundle.Deleted))

	// 3. Verify correctness.
	applied, err := shotgun.ApplyBundle(v1, bundle)
	if err != nil {
		log.Fatal(err)
	}
	if len(applied) != len(v2) {
		log.Fatal("applied image has wrong file count")
	}
	for p, want := range v2 {
		if !bytes.Equal(applied[p], want) {
			log.Fatalf("file %s differs after applying the bundle", p)
		}
	}
	fmt.Fprintln(w, "bundle verified: applying v1+delta reproduces v2 bit-for-bit")

	// 4. Dissemination: Shotgun vs staggered parallel rsync, on the same
	// PlanetLab-like 40-node topology. Shotgun's download is a Bullet'
	// session through the public façade, requesting rarest-random as the
	// paper's Bullet' does; each node then replays the deltas locally.
	const nodes = 40
	bundleBytes := float64(bundle.WireSize())
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Protocol:  bulletprime.ProtocolBulletPrime,
		Nodes:     nodes,
		FileBytes: bundleBytes,
		Network:   bulletprime.NetworkPlanetLab,
		Seed:      7,
		Strategy:  bulletprime.RarestRandom,
	})
	if err != nil {
		log.Fatal(err)
	}
	sg, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	var sgT trace.CDF
	for _, t := range sg.CompletionTimes {
		sgT.Add(shotgun.Replay(0, t))
	}
	fmt.Fprintf(w, "\n%-24s %12s %12s\n", "method", "median(s)", "worst(s)")
	fmt.Fprintf(w, "%-24s %12.1f %12.1f\n", "shotgun (download)", sg.Median(), sg.Worst())
	fmt.Fprintf(w, "%-24s %12.1f %12.1f\n", "shotgun (dl+update)", sgT.Median(), sgT.Worst())

	topoFn := harness.PlanetLabTopology(nodes)
	var rsyncWorst float64
	for _, parallel := range []int{4, 16} {
		rig := harness.NewRig(topoFn(sim.NewRNG(7).Stream("topo")), 7)
		var t trace.CDF
		for _, at := range shotgun.RunParallelRsync(rig.Eng, rig.Net, rig.Members, 0, bundleBytes, parallel, 360000) {
			t.Add(at)
		}
		fmt.Fprintf(w, "%-24s %12.1f %12.1f\n", fmt.Sprintf("%d parallel rsync", parallel), t.Median(), t.Worst())
		rsyncWorst = max(rsyncWorst, t.Worst())
	}
	fmt.Fprintf(w, "\nshotgun finishes the slowest node %.0fx faster than the slowest rsync sweep\n",
		rsyncWorst/sgT.Worst())
}
