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
//  4. simulates disseminating the bundle three ways on the same
//     PlanetLab-like topology: Shotgun, a Bullet' mesh session through the
//     public façade, and staggered parallel rsync from the central server,
//     printing the speedups.
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

	// 4. Dissemination: Shotgun vs a Bullet' session vs staggered parallel
	// rsync, on the same PlanetLab-like 40-node topology.
	const nodes = 40
	bundleBytes := float64(bundle.WireSize())

	topoFn := harness.PlanetLabTopology(nodes)
	rigA := harness.NewRig(topoFn(sim.NewRNG(7).Stream("topo")), 7)
	sg := shotgun.RunShotgun(rigA.Eng, rigA.RT, rigA.Members, 0, bundleBytes, 16*1024,
		rigA.Master.Stream("shotgun"), 36000)

	fmt.Fprintf(w, "\n%-24s %12s %12s\n", "method", "median(s)", "worst(s)")
	sgT := sg.Times(true)
	fmt.Fprintf(w, "%-24s %12.1f %12.1f\n", "shotgun (dl+update)", sgT[len(sgT)/2], sgT[len(sgT)-1])

	// The same bundle through the public session API: a Bullet' mesh on
	// the registered planetlab preset.
	exp, err := bulletprime.New(bulletprime.RunConfig{
		Protocol:  bulletprime.ProtocolBulletPrime,
		Nodes:     nodes,
		FileBytes: bundleBytes,
		Network:   bulletprime.NetworkPlanetLab,
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	bp, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "%-24s %12.1f %12.1f\n", "bullet' mesh (session)", bp.Median(), bp.Worst())

	var rsyncWorst float64
	for _, parallel := range []int{4, 16} {
		rigB := harness.NewRig(topoFn(sim.NewRNG(7).Stream("topo")), 7)
		rs := shotgun.RunParallelRsync(rigB.Eng, rigB.Net, rigB.Members, 0, bundleBytes, parallel, 360000)
		t := rs.Times(true)
		fmt.Fprintf(w, "%-24s %12.1f %12.1f\n", fmt.Sprintf("%d parallel rsync", parallel), t[len(t)/2], t[len(t)-1])
		if t[len(t)-1] > rsyncWorst {
			rsyncWorst = t[len(t)-1]
		}
	}
	fmt.Fprintf(w, "\nshotgun finishes the slowest node %.0fx faster than the slowest rsync sweep\n",
		rsyncWorst/sgT[len(sgT)-1])
}
