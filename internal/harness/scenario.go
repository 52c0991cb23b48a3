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

// ApplyScenario binds a compiled program's event timeline to the rig: its
// events schedule on the rig's engine, draw from its master RNG, and report
// link changes to its emulator in per-tick batches. sources are exempt from
// churn (the first member when there are none). It is the one door from a
// scenario to a rig: RunSpec applies SweepSpec.Scenario and SweepSpec.Dynamics
// through it, and a bare rig (a benchmark) may call it before running. The
// program's flash-crowd waves are not applied here; RunSpec builds their
// sessions.
func (r *Rig) ApplyScenario(p *scenario.Program, sources ...netem.NodeID) {
	p.Apply(&rigEnv{rig: r, sources: sources})
}

// buildSessions builds the spec's system on a fresh rig and applies its
// compiled scenario, if any: one session over every member, or — when the
// scenario has flash-crowd waves — staggered sessions wrapped in a
// waveSystem; then the event timeline, with the wave sources spared churn.
func buildSessions(rig *Rig, s *SweepSpec, build SystemBuilder) System {
	prog := s.Scenario
	var cohorts [][]netem.NodeID
	if prog != nil {
		cohorts = prog.ResolveWaves(rig.Master.Stream("scenario/waves"))
	}
	var sys System
	var sources []netem.NodeID
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
			sources = append(sources, cohort[0])
		}
		sys = ws
	}
	if prog != nil {
		rig.ApplyScenario(prog, sources...)
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
