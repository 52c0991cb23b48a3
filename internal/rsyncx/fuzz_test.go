package rsyncx

import (
	"encoding/binary"
	"testing"
)

// FuzzApplyDelta decodes arbitrary bytes as a delta and applies it to a
// fixed old image: the result is an error or exactly NewLen bytes, never a
// panic or an allocation sized by the header alone.
func FuzzApplyDelta(f *testing.F) {
	old := randomBytes(8*1024, 15)
	edited := append([]byte(nil), old...)
	copy(edited[3000:], "edited")
	delta := Encode(ComputeDelta(ComputeSignature(old, 1024), append(edited, "tail"...)))
	f.Add(delta)
	huge := make([]byte, 12)
	binary.LittleEndian.PutUint32(huge[0:4], 1024)
	binary.LittleEndian.PutUint32(huge[4:8], 0x7fffffff)
	f.Add(huge)
	f.Add(delta[:len(delta)-2]) // the trailing literal cut short
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := Decode(raw)
		if err != nil {
			return
		}
		out, err := Apply(old, d)
		if err == nil && len(out) != d.NewLen {
			t.Fatalf("Apply returned %d bytes, want NewLen %d", len(out), d.NewLen)
		}
	})
}
