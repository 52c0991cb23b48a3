// Encoded: the paper's §2.2/§4.6 source-coding analysis, end to end.
//
// The paper weighs two ways to beat the "last block" problem: leave the
// file unencoded and rely on the mesh's block diversity, or rateless-encode
// at the source and accept a fixed reception overhead (~4%). This example
// reproduces both sides of that trade:
//
//  1. encodes a real 4 MB payload with LT codes (robust soliton), decodes
//     it from a lossy stream, and reports the measured reception overhead;
//
//  2. demonstrates the nonlinear decode progress the paper warns about
//     ("even with n received blocks, only ~30% of the file content can be
//     reconstructed");
//
//  3. disseminates a file through the public session API in both source
//     modes (unencoded vs Encoded), comparing completion times under the
//     paper's fixed 4% overhead accounting;
//
//  4. runs the Figure 13 experiment at reduced scale: unencoded Bullet'
//     block inter-arrival times, the last-20-block overage, and the
//     verdict on whether encoding would have paid for itself.
//
//     go run ./examples/encoded
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"bulletprime"
	"bulletprime/internal/fountain"
	"bulletprime/internal/harness"
)

func main() { run(os.Stdout) }

// run writes what each of the four parts measures to w.
func run(w io.Writer) {
	// --- 1. Real encode/decode round trip with losses ---
	// Reception overhead shrinks with the number of source blocks k; the
	// paper's 3-5% holds for tens-of-MB files (k in the thousands). 16 MB
	// at 16 KB blocks gives k=1024, ~10%; at the paper's 100 MB (k=6400)
	// this implementation measures ~5%.
	payload := make([]byte, 16<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	const blockSize = 16 * 1024

	enc := fountain.NewEncoder(payload, blockSize, 99)
	dec := fountain.NewDecoder(enc.K(), blockSize, 99)
	fmt.Fprintf(w, "file: %d bytes -> k = %d source blocks of %d B\n", len(payload), enc.K(), blockSize)

	// Simulate 20% stream loss: skip every 5th encoded block.
	sent, received := 0, 0
	for id := 0; !dec.Complete(); id++ {
		sent++
		if id%5 == 4 {
			continue // lost in the network
		}
		received++
		if _, err := dec.Add(id, enc.Block(id)); err != nil {
			log.Fatal(err)
		}
	}
	if !bytes.Equal(dec.Reconstruct(len(payload)), payload) {
		log.Fatal("reconstruction mismatch")
	}
	fmt.Fprintf(w, "decoded after %d received encoded blocks (%d generated, 20%% lost)\n", received, sent)
	fmt.Fprintf(w, "reception overhead: %.1f%% (paper reports 3-5%% typical, 4%% assumed)\n",
		dec.Overhead()*100)

	// --- 2. Nonlinear decode progress ---
	dec2 := fountain.NewDecoder(enc.K(), blockSize, 99)
	checkpoints := map[int]bool{enc.K() / 2: true, enc.K(): true}
	fmt.Fprintln(w, "\ndecode progress (the pre-ripple plateau):")
	for id, got := 0, 0; !dec2.Complete(); id++ {
		dec2.Add(id, enc.Block(id))
		got++
		if checkpoints[got] {
			fmt.Fprintf(w, "  received %4d/%d blocks -> %4.0f%% of file reconstructed\n",
				got, enc.K(), 100*float64(dec2.Recovered())/float64(enc.K()))
		}
	}

	// --- 3. Both source modes through the session API ---
	fmt.Fprintln(w, "\nsession runs, 15 nodes x 2 MB on the lossy mesh:")
	fmt.Fprintf(w, "  %-22s %10s %10s\n", "source mode", "median(s)", "worst(s)")
	for _, encoded := range []bool{false, true} {
		label := "unencoded blocks"
		if encoded {
			label = "fountain-coded (+4%)"
		}
		exp, err := bulletprime.New(bulletprime.RunConfig{
			Protocol:  bulletprime.ProtocolBulletPrime,
			Nodes:     15,
			FileBytes: 2 << 20,
			Network:   bulletprime.NetworkModelNet,
			Encoded:   encoded,
			Seed:      13,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "  %-22s %10.1f %10.1f\n", label, res.Median(), res.Worst())
	}

	// --- 4. The Figure 13 question: would encoding help Bullet'? ---
	fmt.Fprintln(w, "\nFigure 13 analysis (reduced scale):")
	res := harness.Figure13(harness.Scale{Nodes: 0.2, File: 0.05}, 7)
	fmt.Fprintf(w, "  mean block inter-arrival tb : %.3f s\n", res.AvgInterArrival)
	fmt.Fprintf(w, "  last-20-block overage       : %.2f s\n", res.LastBlocksOverage)
	fmt.Fprintf(w, "  cost of 4%% encode overhead  : %.2f s\n", res.EncodingCost)
	if res.LastBlocksOverage > res.EncodingCost {
		fmt.Fprintln(w, "  -> encoding would have helped here")
	} else {
		fmt.Fprintln(w, "  -> encoding would NOT clearly help (the paper's conclusion, §4.6)")
	}
}
