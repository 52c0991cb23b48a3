package main

// The flags that say what runs are declared here, once each, in two groups:
// runFlags describes one run (run, trace, crosscheck) and sweepFlags a sweep's
// geometry (sweep, farm coordinate|resume|status). A command sets its defaults
// on the group's fields, registers the group on its FlagSet, and reads the
// config back after parsing.

import (
	"flag"
	"io"
	"strings"

	"bulletprime"
	"bulletprime/internal/lab"
)

// helpText is a command's say over the shared flags' help strings: a name
// mapped to a text replaces the group's wording, and a name mapped to ""
// leaves the flag out of the command.
type helpText map[string]string

func (h helpText) or(name, text string) string {
	if t, ok := h[name]; ok {
		return t
	}
	return text
}

// sizeFlags are the flags both groups start with. The fields hold the
// command's defaults before register and the parsed values after.
type sizeFlags struct {
	nodes    int
	fileMB   float64
	deadline float64
	engine   string
	shards   int
}

func (f *sizeFlags) register(fs *flag.FlagSet, help helpText) {
	fs.IntVar(&f.nodes, "nodes", f.nodes, "overlay size including the source")
	fs.Float64Var(&f.fileMB, "filemb", f.fileMB, "file size in MB")
	fs.Float64Var(&f.deadline, "deadline", f.deadline, help.or("deadline", "virtual-time deadline in seconds"))
	if text := help.or("engine", "execution engine: sequential or sharded"); text != "" {
		fs.StringVar(&f.engine, "engine", "sequential", text)
		fs.IntVar(&f.shards, "shards", 0, help.or("shards", "shard count for -engine sharded (0 = default)"))
	}
}

// config is the part of a RunConfig the size flags decide; ok is false, with
// the reason on stderr, for an -engine value that names no engine.
func (f *sizeFlags) config(stderr io.Writer) (cfg bulletprime.RunConfig, ok bool) {
	mode, ok := parseEngine(f.engine, stderr)
	return bulletprime.RunConfig{
		Nodes:     f.nodes,
		FileBytes: f.fileMB * 1e6,
		Deadline:  f.deadline,
		Engine:    mode,
		Shards:    f.shards,
	}, ok
}

// runFlags is the single-run group.
type runFlags struct {
	sizeFlags
	protocol, network string
	seed              int64
}

func (f *runFlags) register(fs *flag.FlagSet, help helpText) {
	f.sizeFlags.register(fs, help)
	fs.StringVar(&f.protocol, "protocol", "bulletprime", help.or("protocol", "protocol (any registered)"))
	if text := help.or("network", "network preset (any registered)"); text != "" {
		fs.StringVar(&f.network, "network", "modelnet", text)
	}
	fs.Int64Var(&f.seed, "seed", 1, help.or("seed", "master random seed"))
}

// config is the run the flags describe; a false ok is a usage error.
func (f *runFlags) config(stderr io.Writer) (cfg bulletprime.RunConfig, ok bool) {
	cfg, ok = f.sizeFlags.config(stderr)
	cfg.Protocol = bulletprime.Protocol(f.protocol)
	cfg.Network = bulletprime.NetworkPreset(f.network)
	cfg.Seed = f.seed
	return cfg, ok
}

// sweepFlags is the sweep-geometry group.
type sweepFlags struct {
	sizeFlags
	protocols, networks string
	seeds, reps         int
}

func (f *sweepFlags) register(fs *flag.FlagSet, help helpText) {
	f.sizeFlags.register(fs, help)
	fs.StringVar(&f.protocols, "protocols", "bulletprime", "comma-separated protocols (any registered)")
	fs.StringVar(&f.networks, "networks", "modelnet", "comma-separated network presets (any registered)")
	fs.IntVar(&f.seeds, "seeds", f.seeds, help.or("seeds", "number of seeds (1..n)"))
	fs.IntVar(&f.reps, "reps", 1, help.or("reps", "repetitions per cell with derived seeds"))
}

// seedList is seeds 1..n.
func (f *sweepFlags) seedList() []int64 {
	var seeds []int64
	for s := int64(1); s <= int64(f.seeds); s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// farmSpec is the geometry as the farm serves it to workers.
func (f *sweepFlags) farmSpec() lab.FarmSpec {
	return lab.FarmSpec{
		Nodes:     f.nodes,
		FileMB:    f.fileMB,
		Protocols: splitList[string](f.protocols),
		Networks:  splitList[string](f.networks),
		Seeds:     f.seedList(),
		Reps:      f.reps,
		Deadline:  f.deadline,
	}
}

// config is the geometry as the façade sweeps it; a false ok is a usage
// error.
func (f *sweepFlags) config(stderr io.Writer) (cfg bulletprime.SweepConfig, ok bool) {
	cfg = bulletprime.SweepConfig{
		Seeds:     f.seedList(),
		Protocols: splitList[bulletprime.Protocol](f.protocols),
		Networks:  splitList[bulletprime.NetworkPreset](f.networks),
		Reps:      f.reps,
	}
	cfg.Base, ok = f.sizeFlags.config(stderr)
	return cfg, ok
}

// splitList reads a comma-separated flag value, dropping blanks.
func splitList[T ~string](s string) []T {
	var out []T
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, T(v))
		}
	}
	return out
}
