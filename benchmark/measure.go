package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of vs (the mean of the middle two for an even
// count), 0 for none. It does not reorder vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// calibSink keeps the calibration loop's result alive so the compiler cannot
// delete the loop.
var calibSink uint64

// calibrate times a fixed integer spin loop (xorshift, no memory traffic) and
// returns milliseconds. The same binary printing a different number minutes
// apart is the host drifting, not the code.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// usage is what one measured interval cost the host.
type usage struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	Allocs uint64  `json:"allocs"`
	// Bytes, GCs and PauseMs feed the traced run's go.* metrics.
	Bytes   uint64  `json:"alloc_bytes"`
	GCs     uint32  `json:"gc_cycles"`
	PauseMs float64 `json:"gc_pause_ms"`
}

// measure runs fn and reports its wall time, process CPU time, and heap
// allocation deltas.
func measure(fn func()) usage {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	fn()
	wall := time.Since(start)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return usage{
		WallS:   wall.Seconds(),
		CPUS:    cpu1 - cpu0,
		Allocs:  m1.Mallocs - m0.Mallocs,
		Bytes:   m1.TotalAlloc - m0.TotalAlloc,
		GCs:     m1.NumGC - m0.NumGC,
		PauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}
