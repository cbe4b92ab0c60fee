// Package workload is the single registry of first-class workload models —
// the catalogue of benchmarks the paper's evaluation campaigns run (HPL,
// the two STREAM working sets, the quantumESPRESSO LAX driver, the MPI
// ping-pong microbenchmark and the idle OS). A Model ties together
// everything the rest of the stack used to look up through scattered
// per-command switch tables: the calibrated Table VI activity profile the
// node physics integrates, the resident memory footprint, the execution
// phases a real run alternates through (HPL's panel-factor / broadcast /
// trailing-update loop), and a runtime estimate wired to the kernel
// simulators (hpl.Simulate, stream.Run, qe.Run, mpi latency model).
//
// The scheduler carries a *Model on every job, the campaign engine draws
// job streams from the registry, and the CLIs resolve -workload flags
// through Lookup — one registry, no drifting copies.
package workload

import (
	"fmt"
	"sort"
	"strings"

	"montecimone/internal/power"
)

// Phase is one stage of a workload's steady execution cycle: a name, the
// activity the node physics sees while the phase runs, and the phase's
// duration within one cycle. Models with a single phase run at their
// Steady profile with no transitions.
type Phase struct {
	// Name labels the phase ("panel", "bcast", "update", ...).
	Name string
	// Activity is the node demand while this phase executes.
	Activity power.Activity
	// Seconds is the phase duration within one steady cycle.
	Seconds float64
}

// Model is a first-class workload: everything the scheduler, the power
// plane, the campaign engine and the CLIs need to know about a benchmark.
type Model struct {
	// Name is the registry key ("hpl", "stream.ddr", ...), the identifier
	// the paper's campaigns and the CLIs use.
	Name string
	// Steady is the calibrated aggregate activity profile (the Table VI
	// column). Single-phase models run at it; phased models alternate
	// through Phases whose time-weighted mean reproduces it.
	Steady power.Activity
	// MemBytes is the workload's resident set per node.
	MemBytes float64
	// Phases is the steady execution cycle (nil or len 1 ⇒ no
	// transitions, the node runs at Steady).
	Phases []Phase
	// Runtime estimates the modelled wall time in seconds of one
	// reference run on the given node count, wired to the kernel
	// simulators. Nil means the model has no intrinsic duration (idle).
	Runtime func(nodes int) (float64, error)
}

// CycleSeconds returns the duration of one phase cycle (0 for single-phase
// models).
func (m *Model) CycleSeconds() float64 {
	if len(m.Phases) <= 1 {
		return 0
	}
	total := 0.0
	for _, p := range m.Phases {
		total += p.Seconds
	}
	return total
}

// MeanPhaseActivity returns the time-weighted mean activity over one phase
// cycle; for single-phase models it is Steady. The built-in phased models
// keep it within a few percent of Steady, so a phased run dissipates the
// mean power its steady profile predicts.
func (m *Model) MeanPhaseActivity() power.Activity {
	cycle := m.CycleSeconds()
	if cycle == 0 {
		return m.Steady
	}
	var mean power.Activity
	for _, p := range m.Phases {
		w := p.Seconds / cycle
		mean.CoreActivity += w * p.Activity.CoreActivity
		mean.DDRReadGBs += w * p.Activity.DDRReadGBs
		mean.DDRWriteGBs += w * p.Activity.DDRWriteGBs
		mean.L2GBs += w * p.Activity.L2GBs
		mean.PCIeActivity += w * p.Activity.PCIeActivity
	}
	return mean
}

// validate rejects malformed models at registration time.
func (m *Model) validate() error {
	if m.Name == "" {
		return fmt.Errorf("workload: model with empty name")
	}
	for _, p := range m.Phases {
		if p.Seconds <= 0 {
			return fmt.Errorf("workload: model %q phase %q has non-positive duration %v", m.Name, p.Name, p.Seconds)
		}
	}
	if m.MemBytes < 0 {
		return fmt.Errorf("workload: model %q has negative memory footprint", m.Name)
	}
	return nil
}

// registry holds the registered models by name. Registration happens in
// package init (the built-ins) or at program start; lookups afterwards are
// read-only, so no locking is needed under the simulator's single-threaded
// control flow.
var registry = map[string]*Model{}

// Register adds a model to the registry. Duplicate names error so two
// subsystems can never redefine a workload out from under each other.
func Register(m *Model) error {
	if err := m.validate(); err != nil {
		return err
	}
	if _, dup := registry[m.Name]; dup {
		return fmt.Errorf("workload: model %q already registered", m.Name)
	}
	registry[m.Name] = m
	return nil
}

// mustRegister is Register for the package's own built-ins.
func mustRegister(m *Model) {
	if err := Register(m); err != nil {
		panic(err)
	}
}

// Names lists the registered model names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a workload name to its model. Unknown names error with
// the full registry listing, so a CLI typo tells the user what exists.
func Lookup(name string) (*Model, error) {
	if m, ok := registry[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("workload: unknown model %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// MustLookup is Lookup for names known at compile time (tests, built-in
// campaign specs); it panics on unknown names.
func MustLookup(name string) *Model {
	m, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return m
}
