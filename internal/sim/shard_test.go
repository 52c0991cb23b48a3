package sim

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
)

// --- shard program: a deterministic adversarial workload ---

const (
	skLocal int32 = 1 // local self-scheduled chain event
	skCross int32 = 2 // cross-shard event carrying a remaining-hop count
)

// shardProg is one shard's handler: random local chains that occasionally
// post cross-shard events, which in turn hop between shards until their
// budget runs out. Every execution folds (time, kind, payload) into a
// running hash, so two runs match iff the full execution sequence matches.
type shardProg struct {
	s     *Shard
	rng   *RNG
	L     float64
	K     int
	hash  uint64
	count uint64
}

func (p *shardProg) mix(v uint64) {
	h := p.hash
	h ^= v
	h *= 1099511628211
	h ^= h >> 33
	p.hash = h
}

func (p *shardProg) OnEvent(kind int32, payload any) {
	now := p.s.Engine().Now()
	p.count++
	p.mix(uint64(kind))
	p.mix(timeBits(now))
	switch kind {
	case skLocal:
		hops := payload.(int)
		p.mix(uint64(hops))
		if hops <= 0 {
			return
		}
		// Continue the local chain.
		p.s.Engine().ScheduleEvent(now+Time(p.rng.Uniform(0.0005, 0.004)), p, skLocal, hops-1)
		// Sometimes branch and sometimes emit a cross event.
		if p.rng.Intn(4) == 0 {
			p.s.Engine().ScheduleEvent(now+Time(p.rng.Uniform(0.0005, 0.004)), p, skLocal, hops/2)
		}
		if p.K > 1 && p.rng.Intn(3) == 0 {
			dst := p.rng.Intn(p.K - 1)
			if dst >= p.s.ID() {
				dst++
			}
			at := now + Time(p.L+p.rng.Uniform(0, 0.002))
			p.s.Post(dst, at, skCross, hops)
		}
	case skCross:
		hops := payload.(int)
		p.mix(uint64(hops))
		if hops <= 0 {
			return
		}
		// A received cross event spawns a short local chain and may hop on.
		p.s.Engine().ScheduleEvent(now+Time(p.rng.Uniform(0.0005, 0.002)), p, skLocal, 2)
		if p.K > 1 && p.rng.Intn(2) == 0 {
			dst := p.rng.Intn(p.K - 1)
			if dst >= p.s.ID() {
				dst++
			}
			p.s.Post(dst, now+Time(p.L), skCross, hops-1)
		}
	default:
		panic("unknown kind")
	}
}

func timeBits(t Time) uint64 { return uint64(int64(float64(t) * 1e9)) }

// buildProgGroup wires K fresh engines into a group running shardProg with
// per-shard RNG streams derived from seed.
func buildProgGroup(seed int64, k int, lookahead float64) (*Group, []*shardProg) {
	engines := make([]*Engine, k)
	for i := range engines {
		engines[i] = NewEngine()
	}
	g := NewGroup(engines, lookahead)
	master := NewRNG(seed)
	progs := make([]*shardProg, k)
	for i := 0; i < k; i++ {
		p := &shardProg{
			s:   g.Shard(i),
			rng: master.Stream(fmt.Sprintf("shard#%d", i)),
			L:   lookahead,
			K:   k,
		}
		g.Shard(i).SetHandler(p)
		progs[i] = p
		// Seed a few chains per shard at staggered start times.
		for c := 0; c < 3; c++ {
			engines[i].ScheduleEvent(Time(p.rng.Uniform(0, 0.01)), p, skLocal, 30)
		}
	}
	return g, progs
}

type progResult struct {
	hash     []uint64
	count    []uint64
	executed []uint64
	posted   []uint64
	crossed  []uint64
}

func runProg(seed int64, k, workers int, horizon Time) progResult {
	const lookahead = 0.005
	g, progs := buildProgGroup(seed, k, lookahead)
	if stopped := g.Run(horizon, workers, nil); stopped {
		panic("unexpected stop")
	}
	r := progResult{}
	for i, p := range progs {
		r.hash = append(r.hash, p.hash)
		r.count = append(r.count, p.count)
		r.executed = append(r.executed, g.Shard(i).Engine().Executed)
		r.posted = append(r.posted, g.Shard(i).Posted)
		r.crossed = append(r.crossed, g.Shard(i).CrossExecuted)
	}
	return r
}

// TestGroupSingleShardMatchesEngine pins Group(K=1) to a plain Engine run:
// the sharded runtime with one shard must execute the identical sequence
// RunUntil would.
func TestGroupSingleShardMatchesEngine(t *testing.T) {
	const horizon = Time(2.0)
	for _, seed := range []int64{1, 7, 42} {
		// Plain engine run.
		eng := NewEngine()
		plain := &shardProg{rng: NewRNG(seed).Stream("shard#0"), L: 0.005, K: 1}
		// Give the plain program a shard facade so OnEvent's s.Engine()
		// works: a single-shard group that we never Run.
		facade := NewGroup([]*Engine{eng}, 0.005)
		plain.s = facade.Shard(0)
		for c := 0; c < 3; c++ {
			eng.ScheduleEvent(Time(plain.rng.Uniform(0, 0.01)), plain, skLocal, 30)
		}
		eng.RunUntil(horizon)

		got := runProg(seed, 1, 1, horizon)
		if got.hash[0] != plain.hash || got.count[0] != plain.count {
			t.Fatalf("seed %d: Group(K=1) diverged from plain engine: hash %x vs %x, count %d vs %d",
				seed, got.hash[0], plain.hash, got.count[0], plain.count)
		}
		if got.executed[0] != eng.Executed {
			t.Fatalf("seed %d: Executed %d vs plain %d", seed, got.executed[0], eng.Executed)
		}
	}
}

// TestGroupWorkerEquivalence is the core determinism pin: running K shards
// cooperatively on one goroutine (workers=1, the oracle) must be
// bit-identical to one goroutine per shard (workers=0), across seeds and
// shard counts, despite arbitrary goroutine interleavings. Run under -race
// this also checks that shards share nothing within a window.
func TestGroupWorkerEquivalence(t *testing.T) {
	const horizon = Time(2.0)
	for _, k := range []int{2, 4, 7} {
		for _, seed := range []int64{3, 11, 1234, 99991} {
			serial := runProg(seed, k, 1, horizon)
			parallel := runProg(seed, k, 0, horizon)
			for i := 0; i < k; i++ {
				if serial.hash[i] != parallel.hash[i] || serial.count[i] != parallel.count[i] {
					t.Fatalf("k=%d seed=%d shard %d diverged: hash %x/%x count %d/%d",
						k, seed, i, serial.hash[i], parallel.hash[i], serial.count[i], parallel.count[i])
				}
				if serial.executed[i] != parallel.executed[i] ||
					serial.posted[i] != parallel.posted[i] ||
					serial.crossed[i] != parallel.crossed[i] {
					t.Fatalf("k=%d seed=%d shard %d counters diverged: executed %d/%d posted %d/%d crossed %d/%d",
						k, seed, i, serial.executed[i], parallel.executed[i],
						serial.posted[i], parallel.posted[i], serial.crossed[i], parallel.crossed[i])
				}
			}
			if serial.posted[0] == 0 && k > 1 {
				t.Fatalf("k=%d seed=%d: adversarial program posted no cross events; test is vacuous", k, seed)
			}
		}
	}
}

// TestGroupRunResume checks that a second Run continues the simulation and
// stays equivalent to one long run.
func TestGroupRunResume(t *testing.T) {
	one := runProg(5, 4, 0, 2.0)
	g, progs := buildProgGroup(5, 4, 0.005)
	g.Run(0.7, 0, nil)
	g.Run(1.3, 1, nil) // mode may even change between runs
	g.Run(2.0, 0, nil)
	for i, p := range progs {
		if p.hash != one.hash[i] || p.count != one.count[i] {
			t.Fatalf("shard %d resumed run diverged: hash %x/%x count %d/%d",
				i, p.hash, one.hash[i], p.count, one.count[i])
		}
	}
}

// TestGroupStop checks cooperative cancellation: a stop signal ends the run
// early and Run reports it.
func TestGroupStop(t *testing.T) {
	g, _ := buildProgGroup(9, 4, 0.005)
	var polls atomic.Int64
	stop := func() bool { return polls.Add(1) > 40 }
	if !g.Run(1000.0, 0, stop) {
		t.Fatal("Run did not report stop")
	}
	if now := g.Now(); now >= 1000.0 {
		t.Fatalf("group clock %v reached the horizon despite stop", now)
	}
}

type panicProg struct{ fn func() }

func (p *panicProg) OnEvent(int32, any) { p.fn() }

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

func TestShardPostGuards(t *testing.T) {
	build := func(fn func(g *Group)) (*Group, *panicProg) {
		engines := []*Engine{NewEngine(), NewEngine()}
		g := NewGroup(engines, 0.01)
		p := &panicProg{fn: func() { fn(g) }}
		engines[0].ScheduleEvent(0.5, p, 1, nil)
		return g, p
	}

	g, _ := build(func(g *Group) { g.Shard(0).Post(0, 1.0, 1, nil) })
	mustPanic(t, "post to self", func() { g.Run(1.0, 1, nil) })

	g, _ = build(func(g *Group) {
		// Below the lookahead floor: now is 0.5, floor is 0.51.
		g.Shard(0).Post(1, 0.505, 1, nil)
	})
	mustPanic(t, "post below lookahead floor", func() { g.Run(1.0, 1, nil) })

	// The same violations must surface (re-raised) in parallel mode.
	g, _ = build(func(g *Group) { g.Shard(0).Post(1, 0.505, 1, nil) })
	mustPanic(t, "post below lookahead floor (parallel)", func() { g.Run(1.0, 0, nil) })

	mustPanic(t, "zero lookahead", func() { NewGroup([]*Engine{NewEngine()}, 0) })
	mustPanic(t, "no engines", func() { NewGroup(nil, 0.01) })
}

// TestShardPostAtExactFloor pins the contract boundary: delivery at exactly
// Now() + lookahead is legal.
func TestShardPostAtExactFloor(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	g := NewGroup(engines, 0.01)
	received := false
	g.Shard(1).SetHandler(&panicProg{fn: func() { received = true }})
	p := &panicProg{}
	p.fn = func() {
		s := g.Shard(0)
		s.Post(1, s.Engine().Now()+Time(g.Lookahead()), 7, nil)
	}
	engines[0].ScheduleEvent(0.5, p, 1, nil)
	g.Run(1.0, 0, nil)
	if !received {
		t.Fatal("cross event at exact lookahead floor was not delivered")
	}
	if g.Shard(1).CrossExecuted != 1 {
		t.Fatalf("CrossExecuted = %d, want 1", g.Shard(1).CrossExecuted)
	}
}

// TestGroupBoundaryDelivery pins the final-pass correctness case that a
// naive implementation misses: an event at exactly horizon-lookahead posts
// a delivery at exactly horizon, which must execute even though every
// lockstep window stops strictly before the horizon.
func TestGroupBoundaryDelivery(t *testing.T) {
	const horizon = Time(1.0)
	const L = 0.01
	for _, workers := range []int{1, 0} {
		engines := []*Engine{NewEngine(), NewEngine()}
		g := NewGroup(engines, L)
		got := false
		g.Shard(1).SetHandler(&panicProg{fn: func() {
			got = true
			if now := engines[1].Now(); now != horizon {
				t.Fatalf("boundary event at %v, want %v", now, horizon)
			}
		}})
		sender := &panicProg{}
		sender.fn = func() { g.Shard(0).Post(1, horizon, 1, nil) }
		engines[0].ScheduleEvent(horizon-Time(L), sender, 1, nil)
		g.Run(horizon, workers, nil)
		if !got {
			t.Fatalf("workers=%d: delivery at exactly the horizon was dropped", workers)
		}
	}
}

// progCounters is every per-shard number a run can be compared by.
func progCounters(g *Group, progs []*shardProg) [][6]uint64 {
	out := make([][6]uint64, len(progs))
	for i, p := range progs {
		s := g.Shard(i)
		out[i] = [6]uint64{p.hash, p.count, s.Engine().Executed, s.Posted, s.CrossExecuted, s.Engine().Compactions}
	}
	return out
}

// FuzzGroupEquivalence drives shardProg through four ways of reaching the
// same horizon and requires identical per-shard counters from all of them:
// workers=1, workers=0, a run split at up to three points (alternating the
// mode), and a workers=0 run stopped after n polls of stop and resumed with
// workers=1. Bytes choose K in [1, 8], a lookahead in [1, 50] ms, the seed,
// a horizon up to 3 s, the split points and n (0 means no stop).
func FuzzGroupEquivalence(f *testing.F) {
	f.Add([]byte{3, 4, 0, 11, 0x07, 0xd0, 2, 0x40, 0xa0, 5})
	f.Add([]byte{7, 0, 0x30, 0x39, 0x0b, 0xb8, 3, 1, 2, 3, 40})
	f.Add([]byte{0, 49, 1, 2, 0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		k := 1 + next()%8
		lookahead := float64(1+next()%50) / 1000
		seed := int64(next()<<8 | next())
		horizon := Time(float64((next()<<8|next())%3001) / 1000)
		splits := make([]Time, next()%4)
		for i := range splits {
			splits[i] = horizon * Time(next()) / 256
		}
		slices.Sort(splits)
		stopAfter := next()

		run := func(drive func(*Group)) [][6]uint64 {
			g, progs := buildProgGroup(seed, k, lookahead)
			drive(g)
			return progCounters(g, progs)
		}
		want := run(func(g *Group) { g.Run(horizon, 1, nil) })
		check := func(name string, got [][6]uint64) {
			if !slices.Equal(got, want) {
				t.Fatalf("K=%d lookahead=%v seed=%d horizon=%v splits=%v stop=%d: %s diverged from workers=1:\n got %v\nwant %v",
					k, lookahead, seed, horizon, splits, stopAfter, name, got, want)
			}
		}
		check("workers=0", run(func(g *Group) { g.Run(horizon, 0, nil) }))
		check("split", run(func(g *Group) {
			for i, at := range splits {
				g.Run(at, i%2, nil)
			}
			g.Run(horizon, len(splits)%2, nil)
		}))
		if stopAfter > 0 {
			check("stopped and resumed", run(func(g *Group) {
				polls := 0
				g.Run(horizon, 0, func() bool { polls++; return polls > stopAfter })
				g.Run(horizon, 1, nil)
			}))
		}
	})
}
