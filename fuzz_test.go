package bulletprime

import (
	"math"
	"reflect"
	"testing"

	"bulletprime/internal/sim"
)

// fuzzBytes reads a fuzz input one byte at a time; an exhausted input reads
// zeros, so every input maps to a config.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzFloats are the values a fuzzed float field takes beside the plain
// ones: the non-finite, the zero and negative defaults, the edges of the
// sampling floor and the block geometry.
var fuzzFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, -1e-9, 1e-300,
	sim.WheelTick, math.Nextafter(sim.WheelTick, 0), 0.5, 1, 16 * 1024, 256 * 1024, 1 << 30,
	3600, math.MaxFloat64}

// float maps one byte to a fuzzFloats entry or to a plain value in
// [0, 255·scale].
func (b *fuzzBytes) float(scale float64) float64 {
	c := int(b.byte())
	if c < 2*len(fuzzFloats) {
		return fuzzFloats[c%len(fuzzFloats)]
	}
	return float64(c) * scale
}

// int maps one byte to [-8, 247].
func (b *fuzzBytes) int() int { return int(b.byte()) - 8 }

// fuzzConfig maps bytes to a RunConfig over small ranges: 7 to 16 nodes,
// files up to about 1 MB, every enum with an invalid value among its
// choices, and non-finite floats wherever the config has a float.
func fuzzConfig(data []byte) RunConfig {
	b := fuzzBytes(data)
	protocols := append(Protocols(), "", "no-such-protocol")
	networks := append(Networks(), "", "no-such-network")
	cfg := RunConfig{
		Protocol:          protocols[int(b.byte())%len(protocols)],
		Nodes:             7 + int(b.byte())%10,
		FileBytes:         b.float(4096),
		BlockSize:         b.float(1024),
		Network:           networks[int(b.byte())%len(networks)],
		DynamicBandwidth:  b.byte()%2 == 1,
		Seed:              int64(b.int()),
		Deadline:          b.float(10),
		Parallel:          b.int() % 4,
		SampleEvery:       b.float(0.01),
		Engine:            EngineMode(int(b.byte())%4 - 1),
		Shards:            b.int() % 12,
		ShardWorkers:      b.int() % 4,
		Strategy:          RequestStrategy(int(b.byte())%6 - 1),
		StaticPeers:       b.int() * 2,
		StaticOutstanding: b.int(),
		Encoded:           b.byte()%2 == 1,
	}
	flags := b.byte()
	if flags&1 != 0 {
		cfg.Stream = &StreamOptions{BitrateBps: b.float(1024), Duration: b.float(0.5),
			PlayoutDepth: b.float(0.1), Warmup: b.float(0.1), Drain: b.float(0.1)}
	}
	if flags&2 != 0 {
		cfg.Testbed = &TestbedOptions{Rate: b.float(0.1), RTO: b.float(0.001),
			MaxRetries: b.int(), DropProb: b.float(1.0 / 256), DropSeed: int64(b.byte())}
	}
	if flags&4 != 0 {
		cfg.Trace = &TraceOptions{Capacity: b.int() * 64}
	}
	return cfg
}

// FuzzNew holds New to its perimeter: whatever config the bytes make, New
// returns a session or an error and never panics, and a config it accepts
// normalizes to bounds a run can keep — no non-finite float, a positive
// deadline, at least one block and none larger than the file, a legal
// sampling cadence, a known engine and strategy — and to itself. It runs
// nothing, so it stays fast and deterministic.
func FuzzNew(f *testing.F) {
	// Each seed but the first is accepted, or refused by the rule its
	// comment names.
	f.Add([]byte{})
	// A file run of Bullet′; the same with a 1 GiB block (clamped) and a
	// NaN one (refused).
	f.Add([]byte{0x93, 0x4, 0x40, 0x30, 0xe3, 0x23, 0x87, 0x3, 0xc5, 0x3, 0x91, 0x38, 0x8, 0x8, 0x1a, 0xa0, 0x8, 0x98})
	f.Add([]byte{0x93, 0x4, 0x41, 13, 0xe3, 0x23, 0x87, 0x3, 0xc5, 0x3, 0x91, 0x38, 0x8, 0x8, 0x1a, 0xa0, 0x8, 0x98})
	f.Add([]byte{0x93, 0x4, 0x41, 16, 0xe3, 0x23, 0x87, 0x3, 0xc5, 0x3, 0x91, 0x38, 0x8, 0x8, 0x1a, 0xa0, 0x8, 0x98})
	// A live stream; the same with NaN viewer settings (refused).
	f.Add([]byte{0x93, 0x4, 0x3, 0x30, 0xe3, 0x23, 0x87, 0x3, 0xc5, 0x3, 0x91, 0x38, 0x8, 0x8, 0x1a, 0xa0, 0x8, 0x99, 64, 40, 3, 3, 3})
	f.Add([]byte{0x93, 0x4, 0x3, 0x30, 0xe3, 0x23, 0x87, 0x3, 0xc5, 0x3, 0x91, 0x38, 0x8, 0x8, 0x1a, 0xa0, 0x8, 0x99, 64, 40, 0, 0, 0})
	// A sharded run (its trace capacity refused).
	f.Add([]byte{0x9d, 0x3, 0x36, 0xb4, 0x92, 0x36, 0x2, 0x3, 0x54, 0x13, 0x86, 0x32, 0x8, 0x8, 0x75, 0xc4, 0x11, 0xe4})
	// A testbed run; the same with a NaN RTO (refused).
	f.Add([]byte{0xcd, 0x7, 0x76, 0xfe, 0x4a, 0x16, 0x41, 0x6, 0x28, 0x3, 0x55, 0xa4, 0x8, 0x8, 0x18, 0xde, 0xe, 0x2, 0x42, 0xf3, 0x3c, 0x42, 0xfe, 0xa3})
	f.Add([]byte{0xcd, 0x7, 0x76, 0xfe, 0x4a, 0x16, 0x41, 0x6, 0x28, 0x3, 0x55, 0xa4, 0x8, 0x8, 0x18, 0xde, 0xe, 0x2, 0x42, 0, 0x3c, 0x42, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		exp, err := New(cfg)
		if err != nil {
			return
		}
		c := exp.Config()
		floats := []float64{c.FileBytes, c.BlockSize, c.Deadline, c.SampleEvery}
		if s := c.Stream; s != nil {
			floats = append(floats, s.BitrateBps, s.Duration, s.PlayoutDepth, s.Warmup, s.Drain)
		}
		if tb := c.Testbed; tb != nil {
			floats = append(floats, tb.Rate, tb.RTO, tb.DropProb)
		}
		for _, v := range floats {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted %+v (stream %+v, testbed %+v), which normalizes to a non-finite value: %+v", cfg, cfg.Stream, cfg.Testbed, c)
			}
		}
		if c.Deadline <= 0 {
			t.Fatalf("accepted %+v with deadline %v", cfg, c.Deadline)
		}
		if !(c.BlockSize > 0 && c.BlockSize <= c.FileBytes) {
			t.Fatalf("accepted %+v with a %v-byte block on a %v-byte file", cfg, c.BlockSize, c.FileBytes)
		}
		if c.SampleEvery != -1 && c.SampleEvery < sim.WheelTick {
			t.Fatalf("accepted %+v sampling every %v s", cfg, c.SampleEvery)
		}
		if c.Engine.String() == "unknown" || c.Strategy.String() == "unknown" {
			t.Fatalf("accepted %+v with engine %v and strategy %v", cfg, c.Engine, c.Strategy)
		}
		again, err := New(c)
		if err != nil {
			t.Fatalf("the normalized config of %+v is refused: %v", cfg, err)
		}
		if !reflect.DeepEqual(again.Config(), c) {
			t.Fatalf("normalizing %+v twice moved it:\n%+v\n%+v", cfg, c, again.Config())
		}
	})
}
