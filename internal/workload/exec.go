package workload

import (
	"fmt"

	"montecimone/internal/power"
	"montecimone/internal/sim"
)

// NodeOps is the slice of the cluster the phased executor drives. The
// cluster facade implements it; the indirection keeps this package free of
// the hardware assembly (and lets tests substitute a recorder).
type NodeOps interface {
	// RunWorkloadOn installs an activity on the given 0-based nodes.
	RunWorkloadOn(nodes []int, name string, act power.Activity, memBytes float64) error
	// ClearWorkloadOn returns the given 0-based nodes to idle.
	ClearWorkloadOn(nodes []int)
}

// ExecOptions tunes a phased execution.
type ExecOptions struct {
	// SlowFactor stretches every phase duration by the given factor
	// (values <= 1, including the zero value, leave the cadence nominal).
	// Fault campaigns set it on jobs touching straggler nodes or degraded-
	// network windows so the phase cycle slows down in step with the
	// scheduler's stretched job runtime.
	SlowFactor float64
}

// Execution is one workload running on an allocation, advancing through
// the model's phase cycle on the discrete-event engine. Stop it when the
// job ends (the campaign runner wires Stop into the scheduler's OnEnd).
type Execution struct {
	engine *sim.Engine
	ops    NodeOps
	model  *Model
	nodes  []int
	opts   ExecOptions

	phase   int
	next    sim.Handle
	stopped bool

	// Transition plumbing built once in Start: the event label and the
	// rescheduling callback are identical for every transition of this
	// execution, so per-phase scheduling allocates neither a string nor a
	// closure (phase cycles are the second-densest event source after
	// telemetry ticks).
	transName string
	transFn   func(*sim.Engine)
}

// Start installs the model's first phase on the nodes and schedules the
// phase transitions. A single-phase model installs its phase once, and a
// model without phases its steady profile; neither transitions. The
// initial installation error surfaces (a halted node cannot take work);
// transition errors are swallowed exactly like the scheduler's own
// workload callbacks — a node that halts mid-job is reported through the
// node-failure path, not here.
func Start(engine *sim.Engine, ops NodeOps, m *Model, nodes []int, opts ExecOptions) (*Execution, error) {
	if engine == nil || ops == nil || m == nil {
		return nil, fmt.Errorf("workload: Start needs an engine, node ops and a model")
	}
	ex := &Execution{engine: engine, ops: ops, model: m, nodes: append([]int(nil), nodes...), opts: opts}
	if len(m.Phases) <= 1 {
		act, label := m.Steady, m.Name
		if len(m.Phases) == 1 {
			act, label = m.Phases[0].Activity, m.Name+"/"+m.Phases[0].Name
		}
		if err := ops.RunWorkloadOn(ex.nodes, label, act, m.MemBytes); err != nil {
			return nil, err
		}
		return ex, nil
	}
	ex.transName = "workload.phase(" + m.Name + ")"
	ex.transFn = func(*sim.Engine) {
		ex.next = sim.Handle{}
		_ = ex.install((ex.phase+1)%len(ex.model.Phases), false)
	}
	if err := ex.install(0, true); err != nil {
		return nil, err
	}
	return ex, nil
}

// install applies phase i and schedules the next transition. The first
// installation propagates errors; later ones best-effort them away.
func (ex *Execution) install(i int, first bool) error {
	ex.phase = i
	p := ex.model.Phases[i]
	err := ex.ops.RunWorkloadOn(ex.nodes, ex.model.Name+"/"+p.Name, p.Activity, ex.model.MemBytes)
	if first && err != nil {
		return err
	}
	dur := p.Seconds
	if ex.opts.SlowFactor > 1 {
		dur *= ex.opts.SlowFactor
	}
	ev, serr := ex.engine.ScheduleAfter(dur, ex.transName, ex.transFn)
	if serr != nil {
		// Unreachable: phase durations are validated positive.
		panic(fmt.Sprintf("workload: schedule phase: %v", serr))
	}
	ex.next = ev
	return nil
}

// Phase returns the name of the currently installed phase ("" for
// models with at most one phase).
func (ex *Execution) Phase() string {
	if len(ex.model.Phases) <= 1 {
		return ""
	}
	return ex.model.Phases[ex.phase].Name
}

// Stop cancels the pending phase transition and clears the workload from
// the allocation. Safe to call more than once.
func (ex *Execution) Stop() {
	if ex.stopped {
		return
	}
	ex.stopped = true
	ex.next.Cancel()
	ex.next = sim.Handle{}
	ex.ops.ClearWorkloadOn(ex.nodes)
}
