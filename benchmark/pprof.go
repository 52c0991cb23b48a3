package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file is a minimal reader of the gzipped profile.proto that
// runtime/pprof writes, enough to attribute CPU samples to this repo's
// packages. go.mod stays dependency-free, so it decodes the protobuf wire
// format by hand and reads only the fields attribution needs.

// stackSample is one profile sample: its call stack as function names,
// innermost frame first (inlined frames expanded), and its last value — CPU
// nanoseconds in a CPU profile.
type stackSample struct {
	stack []string
	value int64
}

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

func (p *pbuf) bytes() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)) {
		return nil, errTruncated
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out, nil
}

// The two protobuf wire types profile.proto uses.
const (
	wireVarint = 0
	wireBytes  = 2
)

// each calls fn for every field of the message with its number and either
// its varint value or its length-delimited payload.
func (p *pbuf) each(fn func(field int, v uint64, payload []byte) error) error {
	for len(p.b) > 0 {
		key, err := p.varint()
		if err != nil {
			return err
		}
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case wireVarint:
			v, err = p.varint()
		case wireBytes:
			payload, err = p.bytes()
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err != nil {
			return err
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends one occurrence of a repeated varint field, which may be
// packed (a payload of varints) or not (a single value).
func repeated(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	p := pbuf{payload}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile reads a gzipped profile.proto into stack samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string table index
		strs      []string
	)
	top := pbuf{raw}
	err = top.each(func(field int, _ uint64, payload []byte) error {
		msg := pbuf{payload}
		switch field {
		case 2: // Sample
			var s rawSample
			err := msg.each(func(f int, v uint64, pl []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, pl)
				case 2:
					s.values, err = repeated(s.values, v, pl)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := msg.each(func(f int, v uint64, pl []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; repeated, innermost (inlined) first
					line := pbuf{pl}
					return line.each(func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // Function
			var id, name uint64
			err := msg.each(func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(payload))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				ss.stack = append(ss.stack, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// Buckets of attributeStack that are not a layer package.
const (
	bucketGC    = "go.gc"
	bucketSched = "go.sched"
	bucketOther = "go.other"
)

// layerPackages are the packages that own a cpu_share metric.
var layerPackages = map[string]bool{
	"sim": true, "netem": true, "proto": true, "core": true, "ransub": true,
	"bullet": true, "bittorrent": true, "splitstream": true, "tree": true,
	"stream": true, "scenario": true, "harness": true, "lab": true,
}

// gcFrames and schedFrames name the runtime functions whose presence in the
// innermost run of runtime frames makes a sample collector or scheduler time
// rather than time the calling layer caused.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.bgsweep", "runtime.bgscavenge",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.ready",
	"runtime.futex", "runtime.notesleep", "runtime.notewakeup",
	"runtime.notetsleep", "runtime.osyield", "runtime.usleep",
	"runtime.netpoll", "runtime.gosched_m", "runtime.goschedImpl",
}

func hasPrefixOf(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a profile function name:
// "bulletprime/internal/core.(*peer).pickBlock" is in
// "bulletprime/internal/core".
func funcPackage(fn string) string {
	// Type arguments of a generic function may hold import paths of their own.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attributeStack names the bucket one sample belongs to. Walking outward
// from the innermost frame: a collector frame among the leading runtime
// frames makes it go.gc, a scheduler frame go.sched; otherwise the first
// frame in a layer package wins, so runtime (map, malloc, memclr) and
// standard-library (sort, slices) time lands on the layer that caused it, as
// does time in repo packages that own no metric (trace, wire, obs). A stack
// with no layer frame at all is go.other.
func attributeStack(stack []string) string {
	inRuntime := true
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if inRuntime && (pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")) {
			switch {
			case hasPrefixOf(fn, gcFrames):
				return bucketGC
			case hasPrefixOf(fn, schedFrames):
				return bucketSched
			}
			continue
		}
		inRuntime = false
		if layer, ok := strings.CutPrefix(pkg, "bulletprime/internal/"); ok && layerPackages[layer] {
			return layer
		}
	}
	return bucketOther
}

// cpuShares folds samples into each bucket's share of the total; the shares
// sum to 1. It also returns the total CPU seconds sampled.
func cpuShares(samples []stackSample) (map[string]float64, float64) {
	shares := map[string]float64{}
	var total int64
	for _, s := range samples {
		shares[attributeStack(s.stack)] += float64(s.value)
		total += s.value
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares, float64(total) / 1e9
}
