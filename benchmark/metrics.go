package main

import "fmt"

// metricDef names one metric and its unit. These tables mirror
// BENCHMARK.json, which is what the driver reads; smoke_test.go fails if the
// two drift apart.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; the same eight on
// every workload. README.md defines each and gives its bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs", "count"},
	{"sim_median_s", "s"},
	{"sim_worst_s", "s"},
	{"completed_share", "ratio"},
}

// perLayer are the traced run's metrics, one layer (package) per prefix.
// A metric whose layer does not run on a workload reads 0 there.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.wall_per_virtual_s", "s/s"},
	{"sim.compactions", "count"},
	{"sim.slice_wall_p50_ms", "ms"},
	{"sim.slice_wall_max_ms", "ms"},
	{"sim.shard_speedup", "ratio"},
	{"sim.cpu_share", "ratio"},

	{"netem.recomputes", "count"},
	{"netem.rates_recomputed", "count"},
	{"netem.rates_skipped", "count"},
	{"netem.skip_ratio", "ratio"},
	{"netem.us_per_recompute", "us"},
	{"netem.bytes_served", "bytes"},
	{"netem.cpu_share", "ratio"},

	{"proto.messages", "count"},
	{"proto.control_bytes", "bytes"},
	{"proto.data_bytes", "bytes"},
	{"proto.control_overhead", "ratio"},
	{"proto.ns_per_message", "ns"},
	{"proto.cpu_share", "ratio"},

	{"core.cpu_share", "ratio"},
	{"core.duplicate_ratio", "ratio"},
	{"ransub.cpu_share", "ratio"},
	{"bullet.cpu_share", "ratio"},
	{"bittorrent.cpu_share", "ratio"},
	{"splitstream.cpu_share", "ratio"},
	{"tree.cpu_share", "ratio"},
	{"bulletprime.sim_median_s", "s"},
	{"bulletprime.cell_wall_s", "s"},
	{"bullet.sim_median_s", "s"},
	{"bullet.cell_wall_s", "s"},
	{"bittorrent.sim_median_s", "s"},
	{"bittorrent.cell_wall_s", "s"},
	{"splitstream.sim_median_s", "s"},
	{"splitstream.cell_wall_s", "s"},

	{"stream.lag_p90_s", "s"},
	{"stream.startup_p50_s", "s"},
	{"stream.rebuffers", "count"},
	{"stream.cpu_share", "ratio"},

	{"scenario.compile_ms", "ms"},
	{"scenario.cpu_share", "ratio"},

	{"harness.topology_s", "s"},
	{"harness.build_s", "s"},
	{"harness.advance_s", "s"},
	{"harness.result_s", "s"},
	{"harness.cpu_share", "ratio"},

	{"facade.overhead_s", "s"},

	{"lab.put_ms", "ms"},
	{"lab.load_ms", "ms"},
	{"lab.compare_ms", "ms"},
	{"lab.claim_rtt_ms", "ms"},
	{"lab.cpu_share", "ratio"},

	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cpu_share", "ratio"},
	{"go.sched_cpu_share", "ratio"},
	{"go.other_cpu_share", "ratio"},
	{"go.heap_peak_mb", "MB"},

	{"host.calib_ms", "ms"},
	{"host.gomaxprocs", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// metric is one reported value. N is how many samples it is the median of.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// report is one workload's result, in the form the driver reads from the
// last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map from defs, taking values (and sample counts)
// from the given maps; a name without a value reads 0.
func fill(defs []metricDef, values map[string]float64, counts map[string]int) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		n := counts[d.name]
		if n == 0 {
			n = 1
		}
		out[d.name] = metric{Value: values[d.name], Unit: d.unit, N: n}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			panic(fmt.Sprintf("metric %q has a value but no definition", name))
		}
	}
	return out
}
