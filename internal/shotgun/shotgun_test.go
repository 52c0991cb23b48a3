package shotgun

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

func image(seed int64, files int, size int) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string][]byte, files)
	for i := 0; i < files; i++ {
		data := make([]byte, size)
		rng.Read(data)
		out[string(rune('a'+i%26))+"/file"+string(rune('0'+i%10))] = data
	}
	return out
}

func mutate(img map[string][]byte, seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string][]byte, len(img))
	for p, data := range img {
		d := append([]byte(nil), data...)
		if rng.Intn(2) == 0 {
			d[rng.Intn(len(d))] ^= 0xff
		}
		out[p] = d
	}
	return out
}

func TestBundleRoundTrip(t *testing.T) {
	old := image(1, 8, 8*1024)
	new := mutate(old, 2)
	new["brand/new"] = []byte("hello fresh file")
	delete(new, "a/file0")

	b := BuildBundle(1, old, new, 2048)
	got, err := ApplyBundle(old, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(new) {
		t.Fatalf("applied image has %d files, want %d", len(got), len(new))
	}
	for p, want := range new {
		if !bytes.Equal(got[p], want) {
			t.Fatalf("file %s mismatch after apply", p)
		}
	}
	if _, stillThere := got["a/file0"]; stillThere {
		t.Fatal("deleted file survived")
	}
}

func TestBundleSkipsUnchanged(t *testing.T) {
	old := image(3, 10, 4*1024)
	new := make(map[string][]byte, len(old))
	for p, d := range old {
		new[p] = d
	}
	// Change exactly one file.
	for p := range new {
		d := append([]byte(nil), new[p]...)
		d[0] ^= 1
		new[p] = d
		break
	}
	b := BuildBundle(1, old, new, 2048)
	if len(b.Files) != 1 {
		t.Fatalf("bundle contains %d files, want 1 (only the changed one)", len(b.Files))
	}
}

// TestBundleCarriesSameSizeEdits pins the edits whose delta ends in a
// literal of the old tail's length: a file smaller than one block, and a
// change confined to a file's trailing partial block. Both keep the file's
// size and must still ride the bundle.
func TestBundleCarriesSameSizeEdits(t *testing.T) {
	old := image(6, 2, 5*1024+100)
	old["small"] = []byte("version 1\n")
	new := map[string][]byte{"small": []byte("version 2\n")}
	for p, d := range old {
		if p != "small" {
			d = bytes.Clone(d)
			d[len(d)-1] ^= 1 // inside the 100-byte tail past the last whole block
			new[p] = d
		}
	}
	b := BuildBundle(1, old, new, 2048)
	if len(b.Files) != len(new) {
		t.Fatalf("bundle carries %d of %d edited files", len(b.Files), len(new))
	}
	got, err := ApplyBundle(old, b)
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range new {
		if !bytes.Equal(got[p], want) {
			t.Fatalf("file %s mismatch after apply", p)
		}
	}
}

func TestBundleWireSizeTracksChanges(t *testing.T) {
	old := image(4, 6, 32*1024)
	same := BuildBundle(1, old, old, 2048)
	new := mutate(old, 5)
	diff := BuildBundle(2, old, new, 2048)
	if same.WireSize() >= diff.WireSize() {
		t.Fatalf("no-change bundle (%d B) not smaller than real delta (%d B)",
			same.WireSize(), diff.WireSize())
	}
	// A delta bundle must be far smaller than the full image.
	total := 0
	for _, d := range new {
		total += len(d)
	}
	if diff.WireSize() > total/2 {
		t.Fatalf("delta bundle %d B vs image %d B: no compression achieved", diff.WireSize(), total)
	}
}

func buildNet(n int, seed int64) (*sim.Engine, *netem.Network, []netem.NodeID) {
	eng := sim.NewEngine()
	topo := netem.NewTopology(n)
	topo.SetUniformAccess(netem.Mbps(10), netem.Mbps(10), netem.MS(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				topo.SetCoreBW(netem.NodeID(i), netem.NodeID(j), netem.Mbps(4))
				topo.SetCoreDelay(netem.NodeID(i), netem.NodeID(j), netem.MS(15))
			}
		}
	}
	net := netem.New(eng, topo, sim.NewRNG(seed).Stream("net"))
	members := make([]netem.NodeID, n)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	return eng, net, members
}

func TestRunParallelRsyncCompletes(t *testing.T) {
	eng, net, members := buildNet(10, 7)
	updates := RunParallelRsync(eng, net, members, 0, 2e6, 4, 3600)
	if len(updates) != 9 {
		t.Fatalf("%d updates done, want 9", len(updates))
	}
	if !slices.IsSorted(updates) {
		t.Fatalf("update times unsorted: %v", updates)
	}
}

// TestReplayTakesTwiceTheDownload pins §4.8's measurement: replaying the
// deltas takes DiskFactor times as long as downloading them did, over the
// node's own download span, and never less than a second.
func TestReplayTakesTwiceTheDownload(t *testing.T) {
	for _, c := range []struct{ start, done, want float64 }{
		{0, 10, 30},     // a Shotgun download, from time 0
		{5, 15, 35},     // an rsync session opened at 5 s
		{0, 0.25, 1.25}, // the one-second floor
	} {
		if got := Replay(c.start, c.done); got != c.want {
			t.Errorf("Replay(%v, %v) = %v, want %v", c.start, c.done, got, c.want)
		}
	}
}
