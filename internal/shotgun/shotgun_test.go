package shotgun

import (
	"bytes"
	"math/rand"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/proto"
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

func buildNet(n int, seed int64) (*sim.Engine, *netem.Network, *proto.Runtime, []netem.NodeID, *sim.RNG) {
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
	master := sim.NewRNG(seed)
	net := netem.New(eng, topo, master.Stream("net"))
	rt := proto.NewRuntime(eng, net)
	members := make([]netem.NodeID, n)
	for i := range members {
		members[i] = netem.NodeID(i)
	}
	return eng, net, rt, members, master
}

func TestRunShotgunCompletes(t *testing.T) {
	eng, _, rt, members, master := buildNet(10, 6)
	res := RunShotgun(eng, rt, members, 0, 2e6, 16*1024, master.Stream("sess"), 600)
	if len(res.DownloadDone) != 9 {
		t.Fatalf("%d downloads done, want 9", len(res.DownloadDone))
	}
	if len(res.UpdateDone) != 9 {
		t.Fatalf("%d updates done, want 9", len(res.UpdateDone))
	}
	for id, d := range res.DownloadDone {
		u := res.UpdateDone[id]
		if u <= d {
			t.Fatalf("node %d update (%v) not after download (%v)", id, u, d)
		}
	}
}

func TestRunParallelRsyncCompletes(t *testing.T) {
	eng, net, _, members, _ := buildNet(10, 7)
	res := RunParallelRsync(eng, net, members, 0, 2e6, 4, 3600)
	if len(res.UpdateDone) != 9 {
		t.Fatalf("%d updates done, want 9", len(res.UpdateDone))
	}
}

func TestShotgunBeatsParallelRsync(t *testing.T) {
	// The headline Figure 15 shape: Shotgun's worst node finishes far
	// sooner than the parallel-rsync worst node, because N point-to-point
	// transfers serialize on the source uplink.
	bundle := 3e6
	engA, _, rtA, membersA, masterA := buildNet(16, 8)
	sg := RunShotgun(engA, rtA, membersA, 0, bundle, 16*1024, masterA.Stream("sess"), 3600)

	engB, netB, _, membersB, _ := buildNet(16, 8)
	rs := RunParallelRsync(engB, netB, membersB, 0, bundle, 4, 36000)

	sgT := sg.Times(true)
	rsT := rs.Times(true)
	if len(sgT) == 0 || len(rsT) == 0 {
		t.Fatal("missing results")
	}
	sgWorst := sgT[len(sgT)-1]
	rsWorst := rsT[len(rsT)-1]
	if sgWorst*2 > rsWorst {
		t.Fatalf("shotgun worst %.1fs not clearly faster than rsync worst %.1fs", sgWorst, rsWorst)
	}
}

func TestTimesSorted(t *testing.T) {
	r := &SimResult{
		DownloadDone: map[netem.NodeID]sim.Time{1: 5, 2: 3, 3: 9},
		UpdateDone:   map[netem.NodeID]sim.Time{1: 10, 2: 6, 3: 18},
	}
	d := r.Times(false)
	if d[0] != 3 || d[2] != 9 {
		t.Fatalf("download times unsorted: %v", d)
	}
	u := r.Times(true)
	if u[0] != 6 || u[2] != 18 {
		t.Fatalf("update times unsorted: %v", u)
	}
}
