package scenario

import (
	"encoding/json"
	"testing"

	"bulletprime/internal/netem"
	"bulletprime/internal/sim"
)

// fuzzHorizon is the virtual time a compiled fuzz program runs to.
const fuzzHorizon = 1.0

// budgetEnv is a testEnv that fails the test once more scenario events have
// fired than the program's budget allows.
type budgetEnv struct {
	*testEnv
	t    *testing.T
	left int
}

func (e *budgetEnv) Schedule(at float64, fn func()) {
	e.testEnv.Schedule(at, func() {
		e.left--
		if e.left < 0 {
			e.t.Fatalf("the program fired more events by t=%vs than its budget; now t=%vs", fuzzHorizon, e.Now())
		}
		fn()
	})
}

// budget bounds the events a compiled program may fire by fuzzHorizon: a
// process fires again at most every minPeriod (a trace once per point per
// cycle; an outage's exponential residences have means of at least
// minPeriod, hence the slack), churn once per member, the rest once.
func (p *Program) budget() int {
	ticks := int(fuzzHorizon/minPeriod) + 1
	total := 0
	for _, ev := range p.events {
		points := 1
		if ev.Trace != nil {
			points = len(ev.Trace.Times)
		}
		total += 4*points*ticks + p.n
	}
	return total
}

// FuzzScenarioCompile holds the scenario decoder to "an error or a value,
// never a panic, never a run that does not end": bytes go through Parse,
// Compile for every overlay size in [2, 40], Timeline, and Fits on a dense
// topology and on two compact clusters; a program that compiles is applied
// to a testEnv of the size k picks and run to fuzzHorizon within its event
// budget.
func FuzzScenarioCompile(f *testing.F) {
	mixed, err := LoadFile("testdata/mixed.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []*Scenario{mixed, goldenScenario(), LiveFlashCrowd(30, 0.4), LiveChurn(10, 0.3, 20)} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(10))
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		var run *Program
		for n := 2; n <= 40; n++ {
			p, err := s.Compile(n)
			if err != nil {
				continue
			}
			_ = p.Timeline()
			_ = p.Fits(netem.NewTopology(n))
			if n%2 == 0 && n >= 4 {
				_ = p.Fits(netem.CompactClusteredTopology(n, n/2, 1))
			}
			p.ResolveWaves(sim.NewRNG(1).Stream("waves"))
			if n == 2+int(k)%39 {
				run = p
			}
		}
		if run == nil {
			return
		}
		env := &budgetEnv{testEnv: newTestEnv(run.n, 1), t: t, left: run.budget()}
		run.Apply(env)
		env.eng.RunUntil(fuzzHorizon)
	})
}
