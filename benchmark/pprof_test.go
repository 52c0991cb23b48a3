package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/cpu.pprof is a real runtime/pprof CPU profile of a few small
// fig5-dynamic runs through the façade, checked in so the decoder is tested
// against what the toolchain writes rather than against its own encoder.
func TestDecodeProfile(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 20 {
		t.Fatalf("decoded %d samples, want at least 20", len(samples))
	}
	funcs := map[string]bool{}
	for _, s := range samples {
		if s.value <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample with value %d and %d frames", s.value, len(s.stack))
		}
		for _, fn := range s.stack {
			funcs[fn] = true
		}
	}
	// Frames the profiled program must have been sampled in, outermost to
	// hot path: proof that names, inlined lines and stack order decode.
	for _, want := range []string{
		"bulletprime/internal/harness.RunSpec",
		"bulletprime/internal/sim.(*Engine).RunUntil",
		"bulletprime/internal/core.(*peer).pickBlock",
	} {
		if !funcs[want] {
			t.Errorf("no sample passes through %s", want)
		}
	}
	for _, s := range samples {
		for i, fn := range s.stack {
			if fn == "bulletprime/internal/sim.(*Engine).RunUntil" {
				for _, outer := range s.stack[:i] {
					if outer == "bulletprime/internal/harness.RunSpec" {
						t.Fatalf("stack is not innermost-first: %v", s.stack)
					}
				}
			}
		}
	}

	shares, cpuS := cpuShares(samples)
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v, want 1", total)
	}
	if cpuS <= 0 {
		t.Errorf("sampled CPU time %v", cpuS)
	}
	// The profiled runs are Bullet' downloads: the protocol and the
	// emulator under it must dominate, and nothing lab- or stream-side ran.
	if got := shares["core"] + shares["netem"] + shares["proto"] + shares["sim"] + shares["ransub"]; got < 0.5 {
		t.Errorf("core+netem+proto+sim+ransub share = %v, want most of the profile; shares %v", got, shares)
	}
	if shares["lab"] != 0 || shares["stream"] != 0 {
		t.Errorf("lab %v and stream %v shares on a run that used neither", shares["lab"], shares["stream"])
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a gzip stream")); err == nil {
		t.Error("garbage decoded without error")
	}
	data, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeProfile(data[:len(data)/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestAttributeStack(t *testing.T) {
	const (
		pick    = "bulletprime/internal/core.(*peer).pickBlock"
		recomp  = "bulletprime/internal/netem.(*Network).recompute"
		runSpec = "bulletprime/internal/harness.RunSpec"
		group   = "bulletprime/internal/sim.(*Group).Run"
	)
	for _, tc := range []struct {
		name  string
		stack string // innermost first
		want  string
	}{
		{"layer leaf", pick + " " + runSpec, "core"},
		{"malloc lands on the caller", "runtime.memclrNoHeapPointers runtime.mallocgc runtime.growslice " + pick + " " + runSpec, "core"},
		{"map access lands on the caller", "runtime.mapaccess2_fast64 " + recomp + " " + runSpec, "netem"},
		{"stdlib sort lands on the caller", "slices.insertionSortCmpFunc[go.shape.*uint8] slices.pdqsortCmpFunc[go.shape.*uint8] slices.SortFunc[go.shape.[]*uint8,go.shape.*uint8] " + recomp, "netem"},
		{"innermost layer wins over outer ones", "bulletprime/internal/proto.(*half).pump " + pick + " " + runSpec, "proto"},
		{"unmetered repo package lands on its caller", "bulletprime/internal/trace.(*CDF).Add " + runSpec, "harness"},
		{"closure in a layer", "bulletprime/internal/ransub.(*Agent).distribute.func1 runtime.goexit", "ransub"},
		{"background mark worker", "runtime.scanobject runtime.gcDrain runtime.gcBgMarkWorker.func2 runtime.systemstack runtime.gcBgMarkWorker", bucketGC},
		{"assist during a layer's malloc", "runtime.scanobject runtime.gcDrainN runtime.gcAssistAlloc1 runtime.gcAssistAlloc runtime.mallocgc " + pick, bucketGC},
		{"idle scheduler thread", "runtime.futex runtime.futexsleep runtime.notesleep runtime.stopm runtime.findRunnable runtime.schedule runtime.park_m runtime.mcall", bucketSched},
		{"wake-up under a layer is scheduler time", "runtime.futex runtime.futexwakeup runtime.notewakeup runtime.startm runtime.wakep runtime.ready runtime.goready runtime.chansend " + group, bucketSched},
		{"runtime frames after a user frame do not count", "main.helper runtime.schedule " + pick, "core"},
		{"façade and main only", "bulletprime.toResult bulletprime.(*Experiment).run main.main runtime.main", bucketOther},
		{"empty", "", bucketOther},
	} {
		if got := attributeStack(strings.Fields(tc.stack)); got != tc.want {
			t.Errorf("%s: attributed to %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"bulletprime/internal/core.(*peer).pickBlock": "bulletprime/internal/core",
		"bulletprime.Run":                 "bulletprime",
		"runtime.mallocgc":                "runtime",
		"runtime/internal/atomic.Xadd":    "runtime/internal/atomic",
		"slices.SortFunc[go.shape.[]int]": "slices",
		"slices.SortFunc[go.shape.[]*bulletprime/internal/netem.Flow]":                "slices",
		"bulletprime/internal/netem.sortBy[go.shape.*bulletprime/internal/sim.Event]": "bulletprime/internal/netem",
		"gopkg.in/yaml%2ev3.(*parser).run":                                            "gopkg.in/yaml%2ev3",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
