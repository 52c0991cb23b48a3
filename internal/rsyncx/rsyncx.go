// Package rsyncx implements the rsync delta-transfer algorithm (Tridgell
// [27]) that Shotgun wraps: a receiver summarizes its old copy as per-block
// signatures (rolling weak checksum + strong hash); the sender slides a
// window over the new file, matching blocks against the signature table,
// and emits a compact delta of COPY and LITERAL operations; applying the
// delta to the old file reproduces the new file exactly.
package rsyncx

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// DefaultBlockSize is the signature block size (rsync's default is ~700
// bytes for small files; 2 KB is a reasonable fixed choice here).
const DefaultBlockSize = 2048

// weakHash is the rolling Adler-32-style checksum rsync uses: two 16-bit
// sums (a = Σ data[i], b = Σ (len-i)·data[i]) packed into 32 bits.
type weakHash struct {
	a, b uint32
	n    int
}

func newWeak(data []byte) weakHash {
	var w weakHash
	w.n = len(data)
	for i, c := range data {
		w.a += uint32(c)
		w.b += uint32(len(data)-i) * uint32(c)
	}
	w.a &= 0xffff
	w.b &= 0xffff
	return w
}

// roll advances the window one byte: drop out, add in.
func (w *weakHash) roll(out, in byte) {
	w.a = (w.a - uint32(out) + uint32(in)) & 0xffff
	w.b = (w.b - uint32(w.n)*uint32(out) + w.a) & 0xffff
}

func (w weakHash) sum() uint32 { return w.a | w.b<<16 }

// strongHash is the collision-resistant confirmation hash.
func strongHash(data []byte) [20]byte { return sha1.Sum(data) }

// BlockSig is one old-file block's signature.
type BlockSig struct {
	Index  int
	Weak   uint32
	Strong [20]byte
}

// Signature summarizes a file for delta computation.
type Signature struct {
	BlockSize int
	FileLen   int
	Blocks    []BlockSig
}

// WireSize returns the approximate on-the-wire size of the signature.
func (s Signature) WireSize() int { return 16 + len(s.Blocks)*28 }

// ComputeSignature builds the per-block signature table of old.
func ComputeSignature(old []byte, blockSize int) Signature {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	sig := Signature{BlockSize: blockSize, FileLen: len(old)}
	for off := 0; off < len(old); off += blockSize {
		end := off + blockSize
		if end > len(old) {
			end = len(old)
		}
		blk := old[off:end]
		sig.Blocks = append(sig.Blocks, BlockSig{
			Index:  off / blockSize,
			Weak:   newWeak(blk).sum(),
			Strong: strongHash(blk),
		})
	}
	return sig
}

// OpKind distinguishes delta operations.
type OpKind byte

const (
	// OpCopy copies one whole block from the old file.
	OpCopy OpKind = iota
	// OpLiteral inserts raw bytes from the new file.
	OpLiteral
)

// Op is one delta operation.
type Op struct {
	Kind  OpKind
	Index int    // OpCopy: old-file block index
	Data  []byte // OpLiteral: raw bytes
}

// Delta is the full edit script plus the new file's length.
type Delta struct {
	BlockSize int
	NewLen    int
	Ops       []Op
}

// WireSize returns the approximate serialized size of the delta: the
// number Shotgun actually disseminates.
func (d Delta) WireSize() int {
	n := 16
	for _, op := range d.Ops {
		if op.Kind == OpCopy {
			n += 9
		} else {
			n += 5 + len(op.Data)
		}
	}
	return n
}

// ComputeDelta produces the edit script that transforms the signed old
// file into new. Full blocks found in the signature table become OpCopy;
// everything else is literal.
func ComputeDelta(sig Signature, newData []byte) Delta {
	d := Delta{BlockSize: sig.BlockSize, NewLen: len(newData)}
	bs := sig.BlockSize
	// Weak-hash lookup: weak -> candidate blocks (collisions possible).
	table := make(map[uint32][]int, len(sig.Blocks))
	for i, b := range sig.Blocks {
		// Only full-size blocks are safely matchable mid-file; rsync also
		// matches the (short) trailing block but only at the very end.
		if (b.Index+1)*bs <= sig.FileLen {
			table[b.Weak] = append(table[b.Weak], i)
		}
	}

	var lit []byte
	flushLit := func() {
		if len(lit) > 0 {
			d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: append([]byte(nil), lit...)})
			lit = lit[:0]
		}
	}

	if len(newData) < bs {
		// Degenerate: nothing matchable.
		if len(newData) > 0 {
			d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: append([]byte(nil), newData...)})
		}
		return d
	}

	w := newWeak(newData[:bs])
	pos := 0
	for {
		matched := -1
		if cands, ok := table[w.sum()]; ok {
			strong := strongHash(newData[pos : pos+bs])
			for _, ci := range cands {
				if sig.Blocks[ci].Strong == strong {
					matched = sig.Blocks[ci].Index
					break
				}
			}
		}
		if matched >= 0 {
			flushLit()
			d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: matched})
			pos += bs
			if pos+bs > len(newData) {
				break
			}
			w = newWeak(newData[pos : pos+bs])
			continue
		}
		lit = append(lit, newData[pos])
		if pos+bs >= len(newData) {
			pos++
			break
		}
		w.roll(newData[pos], newData[pos+bs])
		pos++
	}
	// Trailing bytes that never fit a full window.
	lit = append(lit, newData[pos:]...)
	flushLit()
	return d
}

// Apply reconstructs the new file from the old file and the delta. A
// decoded delta is input Apply did not write: every op is checked against
// old and d.NewLen before anything is multiplied or allocated, and the
// output is sized by what the ops produce, not by what NewLen claims.
func Apply(old []byte, d Delta) ([]byte, error) {
	if d.NewLen < 0 {
		return nil, fmt.Errorf("rsyncx: negative new length %d", d.NewLen)
	}
	bs := d.BlockSize
	n := 0 // bytes the ops produce
	for _, op := range d.Ops {
		switch op.Kind {
		case OpCopy:
			if bs <= 0 {
				return nil, fmt.Errorf("rsyncx: copy block %d with block size %d", op.Index, bs)
			}
			if op.Index < 0 || op.Index >= len(old)/bs {
				return nil, fmt.Errorf("rsyncx: copy block %d out of range", op.Index)
			}
			n += bs
		case OpLiteral:
			n += len(op.Data)
		default:
			return nil, fmt.Errorf("rsyncx: unknown op kind %d", op.Kind)
		}
	}
	if n != d.NewLen {
		return nil, fmt.Errorf("rsyncx: reconstructed %d bytes, want %d", n, d.NewLen)
	}
	out := make([]byte, 0, n)
	for _, op := range d.Ops {
		if op.Kind == OpCopy {
			out = append(out, old[op.Index*bs:(op.Index+1)*bs]...)
		} else {
			out = append(out, op.Data...)
		}
	}
	return out, nil
}

// Encode serializes a delta to bytes (Shotgun bundles these into its
// multicast payload).
func Encode(d Delta) []byte {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(d.BlockSize))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(d.NewLen))
	buf.Write(hdr[:])
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(d.Ops)))
	buf.Write(n[:])
	for _, op := range d.Ops {
		buf.WriteByte(byte(op.Kind))
		if op.Kind == OpCopy {
			binary.LittleEndian.PutUint32(n[:], uint32(op.Index))
			buf.Write(n[:])
		} else {
			binary.LittleEndian.PutUint32(n[:], uint32(len(op.Data)))
			buf.Write(n[:])
			buf.Write(op.Data)
		}
	}
	return buf.Bytes()
}

// Decode parses a serialized delta.
func Decode(raw []byte) (Delta, error) {
	var d Delta
	if len(raw) < 12 {
		return d, fmt.Errorf("rsyncx: truncated delta header")
	}
	d.BlockSize = int(binary.LittleEndian.Uint32(raw[0:4]))
	d.NewLen = int(binary.LittleEndian.Uint32(raw[4:8]))
	nOps := int(binary.LittleEndian.Uint32(raw[8:12]))
	pos := 12
	for i := 0; i < nOps; i++ {
		if pos >= len(raw) {
			return d, fmt.Errorf("rsyncx: truncated op %d", i)
		}
		kind := OpKind(raw[pos])
		pos++
		if pos+4 > len(raw) {
			return d, fmt.Errorf("rsyncx: truncated op %d payload", i)
		}
		v := int(binary.LittleEndian.Uint32(raw[pos : pos+4]))
		pos += 4
		switch kind {
		case OpCopy:
			d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: v})
		case OpLiteral:
			if pos+v > len(raw) {
				return d, fmt.Errorf("rsyncx: truncated literal in op %d", i)
			}
			d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: append([]byte(nil), raw[pos:pos+v]...)})
			pos += v
		default:
			return d, fmt.Errorf("rsyncx: unknown op kind %d", kind)
		}
	}
	return d, nil
}
