// Package fault is the declarative fault-injection subsystem for chaos
// campaigns: a campaign spec's "faults" block compiles into a
// deterministic, seeded event timeline — node crash/reboot cycles,
// airflow faults that drive the paper's genuine 107 degC thermal-runaway
// trip, power-budget steps (brownouts through the power plane), MPI
// network degradation windows and per-node stragglers — and a controller
// schedules that timeline through the discrete-event engine and owns the
// recovery half (repairs, reboots, scheduler NodeUp) plus the
// availability/MTTR accounting the campaign report renders.
//
// Determinism rules. Every random draw happens at Compile time from named
// sim.RNG streams (one per fault class), never while the engine runs, so
// the same spec + seed expands into the same timeline on every run, and
// the engine fires the injections in (time, sequence) order.
package fault

import (
	"fmt"
	"math"
	"sort"
)

// Defaults applied by the accessor methods when a spec leaves a knob zero.
const (
	// DefaultRebootS is the crash repair delay before power-on.
	DefaultRebootS = 120.0
	// DefaultRepairS is the delay between a fault-induced thermal halt and
	// the fan fix + power cycle.
	DefaultRepairS = 300.0
	// DefaultExtraRthKW and DefaultExtraAirC reproduce (on a mitigated
	// slot) roughly the node 7 lid-on environment: supercritical under
	// HPL-class load, so a loaded node walks the genuine runaway path.
	DefaultExtraRthKW = 4.5
	DefaultExtraAirC  = 17.0
	// DefaultMaxRequeues bounds NODE_FAIL requeues per job.
	DefaultMaxRequeues = 3
)

// minRecoveryS is the validation floor for recovery delays: a reboot or
// repair faster than one second is not physical.
const minRecoveryS = 1.0

// maxFaultEvents caps the crashes a spec may expect and the thermal
// injections it may ask for. Compile expands every one into the plan
// before the run starts, so an unbounded count exhausts memory. The cap
// sits far above every checked-in spec: examples/chaosstudy.json expects
// about 17 crashes.
const maxFaultEvents = 1_000_000

// Crash describes random whole-node crash/reboot cycles: each node fails
// independently with exponential interarrivals at the given MTBF, powers
// off instantly (the job there ends in NODE_FAIL) and reboots after
// RebootS.
type Crash struct {
	// MTBFHours is the per-node mean time between crashes.
	MTBFHours float64 `json:"mtbf_hours"`
	// RebootS is the repair delay before the power button is pressed
	// again (default DefaultRebootS); the OS boot adds its usual
	// R1+R2 seconds on top.
	RebootS float64 `json:"reboot_s,omitempty"`
}

func (c *Crash) rebootS() float64 {
	if c.RebootS == 0 {
		return DefaultRebootS
	}
	return c.RebootS
}

// Thermal describes airflow-fault injections: a drawn node gains extra
// junction-to-air resistance and inlet-air rise (a failed fan), which
// leaves it with no equilibrium below the 107 degC trip under load — the
// node 7 failure mode on demand. After the trip the fan is fixed and the
// node power-cycled RepairS seconds later.
type Thermal struct {
	// Injections is how many airflow faults to draw over the horizon
	// (injection instants land in the first half so the repair fits).
	Injections int `json:"injections"`
	// ExtraRthKW / ExtraAirC size the defect (defaults DefaultExtraRthKW /
	// DefaultExtraAirC, supercritical under HPL-class load).
	ExtraRthKW float64 `json:"extra_rth_kw,omitempty"`
	ExtraAirC  float64 `json:"extra_air_c,omitempty"`
	// RepairS is the halt-to-power-cycle delay (default DefaultRepairS).
	RepairS float64 `json:"repair_s,omitempty"`
}

func (t *Thermal) extraRthKW() float64 {
	if t.ExtraRthKW == 0 {
		return DefaultExtraRthKW
	}
	return t.ExtraRthKW
}

func (t *Thermal) extraAirC() float64 {
	if t.ExtraAirC == 0 {
		return DefaultExtraAirC
	}
	return t.ExtraAirC
}

func (t *Thermal) repairS() float64 {
	if t.RepairS == 0 {
		return DefaultRepairS
	}
	return t.RepairS
}

// PowerStep is one facility-side budget change (a brownout, or its
// recovery): at AtS the power plane's budget becomes BudgetW.
type PowerStep struct {
	AtS     float64 `json:"at_s"`
	BudgetW float64 `json:"budget_w"`
}

// NetWindow is one network-degradation window: between StartS and
// StartS+DurationS the fabric's inter-node latency is multiplied by
// LatencyMult and its bandwidth by BandwidthMult. Multi-node jobs that
// START inside the window additionally run Slowdown times longer (their
// MPI phases are communication-bound; the coarse per-job stretch models
// it without re-simulating every exchange).
type NetWindow struct {
	StartS    float64 `json:"start_s"`
	DurationS float64 `json:"duration_s"`
	// LatencyMult >= 1 (default 1); BandwidthMult in (0,1] (default 1).
	LatencyMult   float64 `json:"latency_mult,omitempty"`
	BandwidthMult float64 `json:"bandwidth_mult,omitempty"`
	// Slowdown is the runtime stretch for multi-node jobs starting inside
	// the window (default 1/BandwidthMult).
	Slowdown float64 `json:"slowdown,omitempty"`
}

func (w *NetWindow) latencyMult() float64 {
	if w.LatencyMult == 0 {
		return 1
	}
	return w.LatencyMult
}

func (w *NetWindow) bandwidthMult() float64 {
	if w.BandwidthMult == 0 {
		return 1
	}
	return w.BandwidthMult
}

func (w *NetWindow) slowdown() float64 {
	if w.Slowdown == 0 {
		return 1 / w.bandwidthMult()
	}
	return w.Slowdown
}

// Stragglers draws Count distinct nodes that run every job landing on
// them Slowdown times slower (a degraded DIMM, a failing fan curve —
// the node works, just badly).
type Stragglers struct {
	Count    int     `json:"count"`
	Slowdown float64 `json:"slowdown"`
}

// Spec is the declarative "faults" block of a campaign spec. All classes
// are optional; an empty spec injects nothing but still enables the
// recovery machinery (requeue, checkpoint, availability accounting).
type Spec struct {
	Crash      *Crash      `json:"crash,omitempty"`
	Thermal    *Thermal    `json:"thermal,omitempty"`
	PowerSteps []PowerStep `json:"power_steps,omitempty"`
	Network    []NetWindow `json:"network,omitempty"`
	Stragglers *Stragglers `json:"stragglers,omitempty"`

	// MaxRequeues bounds how often a NODE_FAIL job re-enters the queue
	// (default DefaultMaxRequeues; negative disables requeueing).
	MaxRequeues int `json:"max_requeues,omitempty"`
	// Checkpoint enables the phase-boundary checkpoint/restart model:
	// requeued jobs resume from their last completed phase boundary
	// (workload.RestartPoint) instead of t=0. CheckpointS is the periodic
	// interval for single-phase models (0 = they restart from scratch).
	Checkpoint  bool    `json:"checkpoint,omitempty"`
	CheckpointS float64 `json:"checkpoint_interval_s,omitempty"`
}

func (s *Spec) maxRequeues() int {
	if s.MaxRequeues == 0 {
		return DefaultMaxRequeues
	}
	if s.MaxRequeues < 0 {
		return -1
	}
	return s.MaxRequeues
}

// Requeue reports whether NODE_FAIL jobs requeue, and the per-job bound.
func (s *Spec) Requeue() (enabled bool, maxRequeues int) {
	m := s.maxRequeues()
	return m >= 0, m
}

// Validate checks the fault block against the campaign's machine: nodes is
// the partition size, horizonS the campaign horizon, hasPlane whether the
// power plane is enabled (power steps are meaningless without it).
func (s *Spec) Validate(nodes int, horizonS float64, hasPlane bool) error {
	if c := s.Crash; c != nil {
		if c.MTBFHours <= 0 {
			return fmt.Errorf("fault: crash mtbf_hours must be positive, got %v", c.MTBFHours)
		}
		// Compile draws at this rate. One that overflows to +Inf draws
		// only zero interarrivals and would never reach the horizon; it
		// makes the count +Inf, and a NaN mtbf makes it NaN, so the
		// negated comparison rejects both.
		rate := 1 / (c.MTBFHours * 3600)
		if expected := float64(nodes) * horizonS * rate; !(expected <= maxFaultEvents) {
			return fmt.Errorf("fault: crash mtbf_hours %v expects %.4g crashes over %d nodes and %v s, more than %d",
				c.MTBFHours, expected, nodes, horizonS, maxFaultEvents)
		}
		if c.RebootS != 0 && c.RebootS < minRecoveryS {
			return fmt.Errorf("fault: crash reboot_s must be >= %v s, got %v", minRecoveryS, c.RebootS)
		}
	}
	if t := s.Thermal; t != nil {
		if t.Injections <= 0 || t.Injections > maxFaultEvents {
			return fmt.Errorf("fault: thermal injections must be in [1,%d], got %d", maxFaultEvents, t.Injections)
		}
		if t.ExtraRthKW < 0 || t.ExtraAirC < 0 {
			return fmt.Errorf("fault: thermal extra_rth_kw/extra_air_c must be non-negative")
		}
		if t.RepairS != 0 && t.RepairS < minRecoveryS {
			return fmt.Errorf("fault: thermal repair_s must be >= %v s, got %v", minRecoveryS, t.RepairS)
		}
	}
	for i, p := range s.PowerSteps {
		if !hasPlane {
			return fmt.Errorf("fault: power_steps[%d]: campaign has no power plane (set power_budget_w)", i)
		}
		if p.AtS < 0 || p.AtS > horizonS {
			return fmt.Errorf("fault: power_steps[%d]: at_s %v outside [0,%v]", i, p.AtS, horizonS)
		}
		if !(p.BudgetW > 0) || math.IsInf(p.BudgetW, 1) {
			return fmt.Errorf("fault: power_steps[%d]: budget_w must be positive and finite, got %v", i, p.BudgetW)
		}
	}
	windows := append([]NetWindow(nil), s.Network...)
	sort.SliceStable(windows, func(i, j int) bool { return windows[i].StartS < windows[j].StartS })
	prevEnd := 0.0
	for i, w := range windows {
		if w.StartS < 0 || w.DurationS <= 0 {
			return fmt.Errorf("fault: network[%d]: needs start_s >= 0 and duration_s > 0", i)
		}
		if w.StartS < prevEnd {
			return fmt.Errorf("fault: network windows overlap at t=%v", w.StartS)
		}
		prevEnd = w.StartS + w.DurationS
		if w.LatencyMult != 0 && w.LatencyMult < 1 {
			return fmt.Errorf("fault: network[%d]: latency_mult must be >= 1, got %v", i, w.LatencyMult)
		}
		if w.BandwidthMult != 0 && (w.BandwidthMult <= 0 || w.BandwidthMult > 1) {
			return fmt.Errorf("fault: network[%d]: bandwidth_mult must be in (0,1], got %v", i, w.BandwidthMult)
		}
		if w.Slowdown != 0 && w.Slowdown < 1 {
			return fmt.Errorf("fault: network[%d]: slowdown must be >= 1, got %v", i, w.Slowdown)
		}
	}
	if st := s.Stragglers; st != nil {
		if st.Count <= 0 || st.Count > nodes {
			return fmt.Errorf("fault: stragglers count %d outside [1,%d]", st.Count, nodes)
		}
		if st.Slowdown <= 1 {
			return fmt.Errorf("fault: stragglers slowdown must be > 1, got %v", st.Slowdown)
		}
	}
	if s.CheckpointS < 0 {
		return fmt.Errorf("fault: checkpoint_interval_s must be non-negative, got %v", s.CheckpointS)
	}
	return nil
}
