package bulletprime_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"bulletprime"
)

func TestRunQuickstartShape(t *testing.T) {
	res, err := bulletprime.Run(bulletprime.RunConfig{
		Nodes:     10,
		FileBytes: 1 << 20,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("run did not finish")
	}
	if len(res.CompletionTimes) != 9 {
		t.Fatalf("%d completion times, want 9 (source excluded)", len(res.CompletionTimes))
	}
	if !(res.Best() <= res.Median() && res.Median() <= res.Worst()) {
		t.Fatalf("quantiles disordered: %v %v %v", res.Best(), res.Median(), res.Worst())
	}
	if res.ControlOverhead <= 0 || res.ControlOverhead > 0.5 {
		t.Fatalf("control overhead %v implausible", res.ControlOverhead)
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range []bulletprime.Protocol{
		bulletprime.ProtocolBulletPrime,
		bulletprime.ProtocolBullet,
		bulletprime.ProtocolBitTorrent,
		bulletprime.ProtocolSplitStream,
	} {
		res, err := bulletprime.Run(bulletprime.RunConfig{
			Protocol:  p,
			Nodes:     10,
			FileBytes: 1 << 20,
			Seed:      2,
			Deadline:  1800,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !res.Finished {
			t.Fatalf("%s did not finish", p)
		}
	}
}

func TestRunAllNetworks(t *testing.T) {
	for _, n := range []bulletprime.NetworkPreset{
		bulletprime.NetworkModelNet,
		bulletprime.NetworkModelNetClean,
		bulletprime.NetworkConstrained,
		bulletprime.NetworkHighBDP,
		bulletprime.NetworkPlanetLab,
		bulletprime.NetworkClustered,
	} {
		res, err := bulletprime.Run(bulletprime.RunConfig{
			Nodes:     10,
			FileBytes: 1 << 20,
			Network:   n,
			Seed:      3,
			Deadline:  3600,
		})
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if !res.Finished {
			t.Fatalf("%s did not finish", n)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := bulletprime.Run(bulletprime.RunConfig{Nodes: 2, FileBytes: 1e6}); err == nil {
		t.Fatal("accepted too few nodes")
	}
	if _, err := bulletprime.Run(bulletprime.RunConfig{Nodes: 10}); err == nil {
		t.Fatal("accepted zero file size")
	}
	if _, err := bulletprime.Run(bulletprime.RunConfig{Nodes: 10, FileBytes: 1e6, Protocol: "gopher"}); err == nil {
		t.Fatal("accepted unknown protocol")
	}
	if _, err := bulletprime.Run(bulletprime.RunConfig{Nodes: 10, FileBytes: 1e6, Network: "fddi"}); err == nil {
		t.Fatal("accepted unknown network")
	}
}

// TestNewRefusesNonFiniteValues holds New to refusing, by the field's name,
// a Deadline, a stream Duration or a SampleEvery that is not a finite number,
// and a positive SampleEvery below the wheel's tick: a NaN deadline ran to
// t = 0 with no receiver done, and an infinite duration became a one-block
// stream.
func TestNewRefusesNonFiniteValues(t *testing.T) {
	base := bulletprime.RunConfig{Nodes: 8, FileBytes: 256 * 1024, Seed: 1}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := base
		cfg.Deadline = d
		if _, err := bulletprime.New(cfg); err == nil || !strings.Contains(err.Error(), "Deadline") {
			t.Errorf("Deadline %v: New returned %v, want an error naming Deadline", d, err)
		}
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := base
		cfg.FileBytes = 0
		cfg.Stream = &bulletprime.StreamOptions{BitrateBps: 64 * 1024, Duration: d}
		if _, err := bulletprime.New(cfg); err == nil || !strings.Contains(err.Error(), "Duration") {
			t.Errorf("Stream.Duration %v: New returned %v, want an error naming Duration", d, err)
		}
	}
	// A cadence that is not a number, or finer than the event wheel's 1/1024 s
	// tick: 1e-9 s ran 3.9 s of wall for 2.3 ms of virtual time.
	for _, every := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-9, math.Nextafter(1.0/1024, 0)} {
		cfg := base
		cfg.SampleEvery = every
		if _, err := bulletprime.New(cfg); err == nil || !strings.Contains(err.Error(), "SampleEvery") {
			t.Errorf("SampleEvery %v: New returned %v, want an error naming SampleEvery", every, err)
		}
	}
	for _, every := range []float64{1.0 / 1024, 0.5, 0, -1, -1e-9} {
		cfg := base
		cfg.SampleEvery = every
		if _, err := bulletprime.New(cfg); err != nil {
			t.Errorf("SampleEvery %v: New refused a valid cadence: %v", every, err)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() float64 {
		res, err := bulletprime.Run(bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.Worst()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestRunDynamicBandwidth(t *testing.T) {
	res, err := bulletprime.Run(bulletprime.RunConfig{
		Nodes:            10,
		FileBytes:        2 << 20,
		DynamicBandwidth: true,
		Seed:             5,
		Deadline:         3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("dynamic run did not finish")
	}
}

func TestRunBulletPrimeKnobs(t *testing.T) {
	res, err := bulletprime.Run(bulletprime.RunConfig{
		Nodes:             10,
		FileBytes:         1 << 20,
		Strategy:          bulletprime.RandomStrategy,
		StaticPeers:       6,
		StaticOutstanding: 5,
		Seed:              6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("knob run did not finish")
	}
}

// TestSweepCrossProductMatchesRun: every sweep cell is Run of the same single
// config, a live stream's report included. The stream's warmup window is off,
// the setting a second reading of its defaults used to switch back on.
func TestSweepCrossProductMatchesRun(t *testing.T) {
	for _, sweep := range []bulletprime.SweepConfig{
		{
			Base:      bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Parallel: 4},
			Seeds:     []int64{1, 2},
			Protocols: []bulletprime.Protocol{bulletprime.ProtocolBulletPrime, bulletprime.ProtocolBitTorrent},
		},
		{
			Base: bulletprime.RunConfig{Nodes: 8, Network: bulletprime.NetworkModelNetClean,
				Stream: &bulletprime.StreamOptions{BitrateBps: 64 * 1024, Duration: 10, Warmup: -1}},
			Seeds: []int64{1, 2},
		},
	} {
		runs, err := bulletprime.Sweep(sweep)
		if err != nil {
			t.Fatal(err)
		}
		if want := max(len(sweep.Protocols), 1) * len(sweep.Seeds); len(runs) != want {
			t.Fatalf("%d runs, want %d", len(runs), want)
		}
		for _, r := range runs {
			cfg := sweep.Base
			cfg.Protocol = r.Protocol
			cfg.Network = r.Network
			cfg.Seed = r.Seed
			solo, err := bulletprime.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(solo.CompletionTimes) != len(r.Result.CompletionTimes) {
				t.Fatalf("%s seed %d: sweep found %d completions, solo run %d",
					r.Protocol, r.Seed, len(r.Result.CompletionTimes), len(solo.CompletionTimes))
			}
			for id, at := range solo.CompletionTimes {
				if r.Result.CompletionTimes[id] != at {
					t.Fatalf("%s seed %d node %d: sweep %v, solo %v",
						r.Protocol, r.Seed, id, r.Result.CompletionTimes[id], at)
				}
			}
			swept, _ := json.Marshal(r.Result.Stream)
			single, _ := json.Marshal(solo.Stream)
			if !bytes.Equal(swept, single) {
				t.Fatalf("%s seed %d: sweep's stream report\n%s\nsolo run's\n%s", r.Protocol, r.Seed, swept, single)
			}
		}
	}
}

func TestSweepDefaultsToBaseConfig(t *testing.T) {
	runs, err := bulletprime.Sweep(bulletprime.SweepConfig{
		Base: bulletprime.RunConfig{Nodes: 10, FileBytes: 1 << 20, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1", len(runs))
	}
	if runs[0].Protocol != bulletprime.ProtocolBulletPrime || runs[0].Network != bulletprime.NetworkModelNet {
		t.Fatalf("defaults not applied: %s/%s", runs[0].Protocol, runs[0].Network)
	}
	if !runs[0].Result.Finished {
		t.Fatal("default sweep run did not finish")
	}
}

// TestScenarioSweepDeterministicAcrossParallelism is the scenario engine's
// sweep contract: the bundled JSON scenario (trace replay + churn + outage +
// a two-wave flash crowd) run over several seeds must produce bit-identical
// per-seed completion CDFs whether the sweep runs on 4 workers or serially.
func TestScenarioSweepDeterministicAcrossParallelism(t *testing.T) {
	sc, err := bulletprime.LoadScenario("internal/scenario/testdata/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(parallel int) []bulletprime.SweepRun {
		runs, err := bulletprime.Sweep(bulletprime.SweepConfig{
			Base: bulletprime.RunConfig{
				Nodes:     14,
				FileBytes: 1 << 20,
				Scenario:  sc,
				Deadline:  600,
				Parallel:  parallel,
			},
			Seeds: []int64{1, 2, 3, 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	par := sweep(4)
	seq := sweep(1)
	if len(par) != 4 || len(seq) != 4 {
		t.Fatalf("run counts: parallel %d, sequential %d", len(par), len(seq))
	}
	anyCompletions := false
	for i := range par {
		p, s := par[i].Result, seq[i].Result
		if len(p.CompletionTimes) != len(s.CompletionTimes) {
			t.Fatalf("seed %d: %d completions parallel vs %d sequential",
				par[i].Seed, len(p.CompletionTimes), len(s.CompletionTimes))
		}
		for id, at := range s.CompletionTimes {
			if p.CompletionTimes[id] != at {
				t.Fatalf("seed %d node %d: %v parallel vs %v sequential",
					par[i].Seed, id, p.CompletionTimes[id], at)
			}
			anyCompletions = true
		}
		if p.Finished != s.Finished {
			t.Fatalf("seed %d: Finished %v vs %v", par[i].Seed, p.Finished, s.Finished)
		}
	}
	if !anyCompletions {
		t.Fatal("scenario sweep completed nobody")
	}
}

// TestRunScenarioValidation pins facade-level scenario validation: a
// scenario that cannot compile for the configured overlay size must fail
// Run with an error, not panic mid-run.
func TestRunScenarioValidation(t *testing.T) {
	bad, err := bulletprime.LoadScenario("internal/scenario/testdata/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	bad.Events[1].Links.Nodes = []int{99}
	if _, err := bulletprime.Run(bulletprime.RunConfig{
		Nodes: 10, FileBytes: 1e6, Scenario: bad,
	}); err == nil {
		t.Fatal("accepted a scenario referencing node 99 on a 10-node overlay")
	}
}

func TestRenderFigureSmoke(t *testing.T) {
	out, err := bulletprime.RenderFigure(9, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 9") {
		t.Fatal("missing figure title")
	}
	if _, err := bulletprime.RenderFigure(3, 0.1, 7); err == nil {
		t.Fatal("accepted unknown figure")
	}
}
