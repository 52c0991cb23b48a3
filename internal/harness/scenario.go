package harness

import (
	"fmt"

	"bulletprime/internal/netem"
	"bulletprime/internal/scenario"
	"bulletprime/internal/sim"
)

// rigEnv adapts a Rig to the scenario engine's Env interface: scenario
// events schedule on the rig's engine, draw from its seeded master RNG, and
// report topology mutations to the emulator in per-tick batches.
type rigEnv struct {
	rig     *Rig
	sources []netem.NodeID
}

func (e *rigEnv) Now() float64 { return float64(e.rig.Eng.Now()) }

func (e *rigEnv) Schedule(at float64, fn func()) {
	t := sim.Time(at)
	if now := e.rig.Eng.Now(); t < now {
		t = now
	}
	e.rig.Eng.Schedule(t, fn)
}

func (e *rigEnv) Stream(name string) *sim.RNG { return e.rig.Master.Stream(name) }

func (e *rigEnv) Members() []netem.NodeID { return e.rig.Members }

func (e *rigEnv) Topo() *netem.Topology { return e.rig.Net.Topo }

func (e *rigEnv) LinksChanged(links []netem.LinkRef) { e.rig.Net.LinksChanged(links) }

// Fail crashes the protocol node at id. Rigs without a registered node at
// that address (pure-emulator benchmarks) take the bandwidth timeline but
// ignore churn.
func (e *rigEnv) Fail(id netem.NodeID) {
	if n := e.rig.RT.Node(id); n != nil {
		n.Fail()
	}
	if e.rig.Stream != nil {
		e.rig.Stream.Fail(id)
	}
}

func (e *rigEnv) Sources() []netem.NodeID {
	if len(e.sources) == 0 {
		return e.rig.Members[:1]
	}
	return e.sources
}

// Annotate implements scenario.Annotator: event annotations flow to the
// rig's observer hook when one is installed.
func (e *rigEnv) Annotate(text string) {
	if e.rig.Annotate != nil {
		e.rig.Annotate(text)
	}
}

// ScenarioDynamics compiles a scenario and returns it in the harness's
// dynamics-hook shape, so declarative scenarios slot anywhere a hardcoded
// schedule used to (SweepSpec.Dynamics: the figure table, benchmarks). The scenario
// must not contain flash-crowd waves — those need session construction and
// only run through SweepSpec.Scenario / RunSpec. Compilation errors panic:
// a builder-made scenario that fails to compile is a programming error.
func ScenarioDynamics(s *scenario.Scenario) func(*Rig) {
	return func(r *Rig) {
		prog, err := s.Compile(len(r.Members))
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		if prog.Waves() != nil {
			panic("harness: flash-crowd scenarios must run via SweepSpec.Scenario, not the dynamics hook")
		}
		prog.Apply(&rigEnv{rig: r})
	}
}

// buildSessions builds the spec's system on a fresh rig and applies its
// compiled scenario, if any: one session over every member, or — when the
// scenario has flash-crowd waves — staggered sessions wrapped in a
// waveSystem; then the event timeline, through a rigEnv.
func buildSessions(rig *Rig, s *SweepSpec, build SystemBuilder) System {
	prog := s.Scenario
	var cohorts [][]netem.NodeID
	if prog != nil {
		cohorts = prog.ResolveWaves(rig.Master.Stream("scenario/waves"))
	}
	var sys System
	env := &rigEnv{rig: rig}
	if cohorts == nil {
		sys = rig.build(build, s, rig.Members, 0, "")
	} else {
		ws := &waveSystem{rig: rig}
		waves := prog.Waves()
		for i, cohort := range cohorts {
			suffix := ""
			if i > 0 {
				suffix = fmt.Sprintf("/wave%d", i)
			}
			// Sessions are built eagerly — proto nodes exist from t=0, so
			// churn can hit future-wave members — and started at wave time.
			// Wave viewers lag their own wave's live edge, so they join the
			// stream tracker at wave time, not t=0.
			ws.waves = append(ws.waves, waveEntry{
				at:   waves[i].At,
				size: len(cohort),
				sys:  rig.build(build, s, cohort, waves[i].At, suffix),
			})
			env.sources = append(env.sources, cohort[0])
		}
		sys = ws
	}
	if prog != nil {
		prog.Apply(env)
	}
	return sys
}

// waveEntry is one flash-crowd wave: a session and its start time.
type waveEntry struct {
	at      float64
	size    int
	sys     System
	started bool
}

// waveSystem runs a flash crowd as staggered sessions over one shared
// emulated network: wave 0 (led by the origin) starts immediately, later
// waves start at their scheduled times, and the crowd is complete when
// every wave's session is.
type waveSystem struct {
	rig   *Rig
	waves []waveEntry
}

// Start launches wave 0 and schedules the rest.
func (ws *waveSystem) Start() {
	for i := range ws.waves {
		w := &ws.waves[i]
		start := func() {
			w.started = true
			w.sys.Start()
			if ws.rig.Annotate != nil {
				ws.rig.Annotate(fmt.Sprintf("flash-crowd wave %d started (%d members)", i, w.size))
			}
		}
		if w.at <= float64(ws.rig.Eng.Now()) {
			start()
		} else {
			ws.rig.Eng.Schedule(sim.Time(w.at), start)
		}
	}
}

// Complete reports whether every wave has started and finished.
func (ws *waveSystem) Complete() bool {
	for i := range ws.waves {
		if !ws.waves[i].started || !ws.waves[i].sys.Complete() {
			return false
		}
	}
	return true
}

// DoneAt returns the completion time of the last wave to finish.
func (ws *waveSystem) DoneAt() sim.Time {
	var last sim.Time
	for i := range ws.waves {
		if t := ws.waves[i].sys.DoneAt(); t > last {
			last = t
		}
	}
	return last
}
