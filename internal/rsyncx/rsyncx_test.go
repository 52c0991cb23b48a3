package rsyncx

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func randomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func roundTrip(t *testing.T, old, new []byte, blockSize int) Delta {
	t.Helper()
	sig := ComputeSignature(old, blockSize)
	d := ComputeDelta(sig, new)
	got, err := Apply(old, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !bytes.Equal(got, new) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(new))
	}
	return d
}

func TestIdenticalFiles(t *testing.T) {
	data := randomBytes(64*1024, 1)
	d := roundTrip(t, data, data, 2048)
	// An unchanged file should be almost entirely copies.
	lit := 0
	for _, op := range d.Ops {
		if op.Kind == OpLiteral {
			lit += len(op.Data)
		}
	}
	if lit > 2048 {
		t.Fatalf("%d literal bytes for identical files, want <= one block", lit)
	}
}

func TestSmallEdit(t *testing.T) {
	old := randomBytes(128*1024, 2)
	new := append([]byte(nil), old...)
	copy(new[50000:], []byte("PATCHED!"))
	d := roundTrip(t, old, new, 2048)
	if ws := d.WireSize(); ws > 3*2048+64 {
		t.Fatalf("delta %d bytes for an 8-byte edit, want <= ~2 blocks", ws)
	}
}

func TestInsertionShiftsHandled(t *testing.T) {
	// Rolling checksums must resynchronize after an insertion shifts all
	// subsequent content.
	old := randomBytes(64*1024, 3)
	new := append([]byte(nil), old[:1000]...)
	new = append(new, []byte("inserted bytes that shift everything")...)
	new = append(new, old[1000:]...)
	d := roundTrip(t, old, new, 1024)
	lit := 0
	for _, op := range d.Ops {
		if op.Kind == OpLiteral {
			lit += len(op.Data)
		}
	}
	// Only the insertion region (plus alignment slop) should be literal.
	if lit > 4096 {
		t.Fatalf("%d literal bytes after a small insertion", lit)
	}
}

func TestCompletelyDifferent(t *testing.T) {
	old := randomBytes(16*1024, 4)
	new := randomBytes(16*1024, 5)
	d := roundTrip(t, old, new, 2048)
	copies := 0
	for _, op := range d.Ops {
		if op.Kind == OpCopy {
			copies++
		}
	}
	if copies > 0 {
		t.Fatalf("%d spurious copies between unrelated random files", copies)
	}
}

func TestEmptyOldFile(t *testing.T) {
	new := randomBytes(10*1024, 6)
	roundTrip(t, nil, new, 2048)
}

func TestEmptyNewFile(t *testing.T) {
	old := randomBytes(10*1024, 7)
	d := roundTrip(t, old, nil, 2048)
	if len(d.Ops) != 0 {
		t.Fatalf("delta for empty target has %d ops", len(d.Ops))
	}
}

func TestShortFiles(t *testing.T) {
	roundTrip(t, []byte("a"), []byte("b"), 2048)
	roundTrip(t, []byte("hello"), []byte("hello world"), 2048)
	roundTrip(t, randomBytes(2047, 8), randomBytes(2049, 9), 2048)
}

func TestRollingMatchesDirect(t *testing.T) {
	data := randomBytes(8192, 10)
	bs := 512
	w := newWeak(data[:bs])
	for pos := 0; pos+bs < len(data); pos++ {
		direct := newWeak(data[pos : pos+bs])
		if w.sum() != direct.sum() {
			t.Fatalf("rolling checksum diverged at offset %d", pos)
		}
		w.roll(data[pos], data[pos+bs])
	}
}

func TestEncodeDecodeDelta(t *testing.T) {
	old := randomBytes(32*1024, 11)
	new := append([]byte(nil), old...)
	new[100] ^= 0xff
	new = append(new, []byte("tail")...)
	sig := ComputeSignature(old, 1024)
	d := ComputeDelta(sig, new)
	raw := Encode(d)
	d2, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(old, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new) {
		t.Fatal("decode(encode(delta)) round trip failed")
	}
}

func TestDecodeTruncated(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated header accepted")
	}
	d := ComputeDelta(ComputeSignature(nil, 512), randomBytes(1000, 12))
	raw := Encode(d)
	if _, err := Decode(raw[:len(raw)-5]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestApplyBadCopy(t *testing.T) {
	d := Delta{BlockSize: 512, NewLen: 512, Ops: []Op{{Kind: OpCopy, Index: 99}}}
	if _, err := Apply(make([]byte, 1024), d); err == nil {
		t.Fatal("out-of-range copy accepted")
	}
}

// TestApplyRefusesLyingDelta feeds Apply deltas whose header or ops lie
// about the old image or the output length. Each must be refused with its
// own error, without a panic and without allocating for the claimed length.
func TestApplyRefusesLyingDelta(t *testing.T) {
	old := randomBytes(4096, 14)
	rows := []struct {
		name    string
		d       Delta
		wantErr string
	}{
		{"negative NewLen",
			Delta{BlockSize: 2048, NewLen: -1},
			"negative new length -1"},
		// Decode accepts any 32-bit NewLen, so this header arrives as is.
		{"NewLen beyond the ops",
			Delta{BlockSize: 2048, NewLen: 0x7fffffff, Ops: []Op{{Kind: OpLiteral, Data: []byte("x")}}},
			"reconstructed 1 bytes, want 2147483647"},
		// Index*2048 is 2^63-2048: the block's end wraps negative.
		{"copy index whose end overflows",
			Delta{BlockSize: 2048, NewLen: 2048, Ops: []Op{{Kind: OpCopy, Index: 1<<52 - 1}}},
			"copy block 4503599627370495 out of range"},
		// Index*2048 is 2^64, which wraps to block 0's offset.
		{"copy index that wraps to block 0",
			Delta{BlockSize: 2048, NewLen: 2048, Ops: []Op{{Kind: OpCopy, Index: 1 << 53}}},
			"copy block 9007199254740992 out of range"},
		{"copy with a negative block size",
			Delta{BlockSize: -1, NewLen: 0, Ops: []Op{{Kind: OpCopy, Index: 0}}},
			"copy block 0 with block size -1"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				_, err = Apply(old, r.d)
				return err
			}()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), r.wantErr) {
				t.Fatalf("Apply error = %v, want %q", err, r.wantErr)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
				t.Fatalf("Apply allocated %d bytes before refusing", n)
			}
		})
	}
}

func TestSignatureWireSize(t *testing.T) {
	sig := ComputeSignature(randomBytes(64*1024, 13), 2048)
	if len(sig.Blocks) != 32 {
		t.Fatalf("signature has %d blocks, want 32", len(sig.Blocks))
	}
	if sig.WireSize() < 32*28 {
		t.Fatal("wire size implausibly small")
	}
}

// Property: delta round trip holds for arbitrary content pairs and
// (old==new prefix) mutations.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(old, new []byte) bool {
		sig := ComputeSignature(old, 256)
		d := ComputeDelta(sig, new)
		got, err := Apply(old, d)
		return err == nil && bytes.Equal(got, new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mutating a few bytes of a large file keeps the delta near one
// block per mutation site.
func TestPropertyDeltaLocality(t *testing.T) {
	f := func(seed int64, nMutRaw uint8) bool {
		nMut := int(nMutRaw%4) + 1
		old := randomBytes(32*1024, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		new := append([]byte(nil), old...)
		for i := 0; i < nMut; i++ {
			new[rng.Intn(len(new))] ^= 0x5a
		}
		sig := ComputeSignature(old, 1024)
		d := ComputeDelta(sig, new)
		got, err := Apply(old, d)
		if err != nil || !bytes.Equal(got, new) {
			return false
		}
		return d.WireSize() <= (nMut+1)*1024+256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
