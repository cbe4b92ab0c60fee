// Package node models one Monte Cimone compute node: a HiFive Unmatched
// board (SiFive Freedom U740, 16 GiB DDR4, 1 TB NVMe, 1 GbE) inside an E4
// RV007 blade slot, with its nine monitored power rails, three hwmon
// temperature sensors, per-hart performance counters and the operating
// system statistics collected by the ExaMon stats_pub plugin.
//
// The node follows the boot state machine of the paper's Fig. 4: power-on
// (R1, supply only), bootloader (R2, PLL and clock tree active, DDR
// training), then the operating system (R3), after which workloads modulate
// the rail powers. A thermal trip at 107 degC halts the node, as observed
// on node 7 during the first HPL runs.
package node

import (
	"fmt"
	"math"

	"montecimone/internal/perf"
	"montecimone/internal/power"
	"montecimone/internal/soc"
	"montecimone/internal/thermal"
)

// Boot timing relative to the power button (Fig. 4: power applied at ~4 s,
// PLL activation at ~10 s, OS idle from ~40 s).
const (
	// R1Duration is the supply-only region before the PLL activates.
	R1Duration = 6.0
	// R2Duration is the bootloader region, ending with a ramp as the OS
	// boots; RampDuration is the tail of R2 during which core power climbs
	// from the R2 floor to the OS idle floor.
	R2Duration   = 30.0
	RampDuration = 10.0
)

// State is the node's life-cycle state.
type State int

// Transition identifies a state change the node reports through the
// OnTransition callback while integrating (demand-driven co-simulation
// needs push notifications: with no global ticker, nobody polls states).
type Transition int

// Reported transitions.
const (
	// TransitionBootComplete fires when the node leaves the bootloader and
	// the OS is up (StateBooting -> StateRunning).
	TransitionBootComplete Transition = iota + 1
	// TransitionHalt fires when the 107 degC thermal trip halts the node.
	TransitionHalt
)

// Node states.
const (
	StateOff State = iota + 1
	StateBooting
	StateRunning
	StateHalted // thermal trip; requires power cycle
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateBooting:
		return "booting"
	case StateRunning:
		return "running"
	case StateHalted:
		return "halted"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config describes one node.
type Config struct {
	// ID is the 1-based node number (1..8 on Monte Cimone).
	ID int
	// Slot is the 0-based blade slot for the thermal environment;
	// defaults to ID-1.
	Slot int
	// Machine is the SoC model; defaults to soc.FU740().
	Machine *soc.Machine
	// Enclosure is the chassis configuration shared by the cluster.
	Enclosure thermal.Enclosure
	// HPMPatch applies the authors' U-Boot patch enabling the
	// programmable performance counters.
	HPMPatch bool
}

// Node is a simulated compute node. Not safe for concurrent use; the
// cluster drives all nodes from the single simulation goroutine.
type Node struct {
	id       int
	hostname string
	machine  *soc.Machine
	pm       *power.Model
	tm       *thermal.Model
	pmu      *perf.PMU

	state     State
	poweredAt float64
	now       float64

	in inputs // the current model inputs

	// Demand-driven integration state. clock, when set, supplies the
	// current virtual time so public reads can lazily integrate up to the
	// observation instant; base is the internal Euler substep and
	// gridNext the next substep boundary. Observations at arbitrary
	// instants take partial steps WITHOUT moving the grid — exactly how
	// a mid-period read interleaves with the lock-step ticker — so both
	// integration modes walk the same Euler step sequence.
	clock        func() float64
	base         float64
	gridNext     float64
	syncing      bool
	onTransition func(kind Transition, at float64)
	onInput      func()
	modelSteps   uint64
	haltedAt     float64

	// sets is the table of distinct input sets the node has run under,
	// each with its derived power pair and equilibrium; cur indexes the
	// current inputs' entry, or is -1 until they are looked up (after any
	// input change or state transition). Inputs change rarely and recur
	// (workload phases cycle), substeps and observations happen
	// constantly. Outside the boot phases only: boot power depends on
	// time, not just inputs.
	sets []inputSet
	cur  int

	// record holds the intervals input changes deferred instead of
	// integrating them (see settle), oldest first; recordHiC bounds the
	// junction temperature over them.
	record    []interval
	recordHiC float64

	// EWMA load-average factors for the last counter interval ewmaDt;
	// nearly every interval is the base step, so math.Exp runs only when
	// dt changes. The zero value is consistent: ewmaAlpha(0, tau) == 0.
	ewmaDt                  float64
	alpha1, alpha5, alpha15 float64

	// OS statistics state.
	load1, load5, load15      float64
	memUsedBytes              float64
	rxTotal, txTotal          float64
	ioReadTotal, ioWriteTotal float64
	intsTotal, cswTotal       float64
	procsNewTotal             float64
}

// inputs is one set of model inputs: everything the setters change that
// the integrator reads. A recorded interval replays under its own copy.
type inputs struct {
	workload              string
	act                   power.Activity
	freqScale             float64 // DVFS scale in (0,1]; 1 = nominal 1.2 GHz
	rxBps, txBps          float64
	ioReadBps, ioWriteBps float64
}

// inputSet is one entry of a node's input-set table: the inputs and the
// values derived from them alone — the SoC and NVMe power every Euler
// substep feeds the thermal model (a nine-rail sum) and the thermal
// equilibrium for that power (a leakage fixed-point solve). running keys
// the rail operating point: an off or halted node draws nothing.
type inputSet struct {
	in              inputs
	socW, nvmeW     float64
	ss              thermal.Steady
	running, stable bool
}

// interval is one recorded stretch of cool running: the inputs of table
// entry set held until the until instant.
type interval struct {
	until float64
	set   int
}

// New builds a node in the powered-off state.
func New(cfg Config) (*Node, error) {
	if cfg.ID <= 0 {
		return nil, fmt.Errorf("node: id must be positive, got %d", cfg.ID)
	}
	machine := cfg.Machine
	if machine == nil {
		machine = soc.FU740()
	}
	if err := machine.Validate(); err != nil {
		return nil, fmt.Errorf("node %d: %w", cfg.ID, err)
	}
	slot := cfg.Slot
	if slot == 0 && cfg.ID-1 < thermal.NumSlots {
		slot = cfg.ID - 1
	}
	tm, err := thermal.NewModel(cfg.Enclosure, slot)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", cfg.ID, err)
	}
	pmu, err := perf.NewPMU(machine.Cores, machine.ClockHz, 2 /* dual issue */, machine.CacheLineBytes, cfg.HPMPatch)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", cfg.ID, err)
	}
	return &Node{
		id:           cfg.ID,
		hostname:     fmt.Sprintf("%s%02d", machine.HostPrefix, cfg.ID),
		machine:      machine,
		pm:           power.NewModel(),
		tm:           tm,
		pmu:          pmu,
		state:        StateOff,
		in:           inputs{freqScale: 1},
		cur:          -1,
		base:         0.1,
		gridNext:     0.1,
		haltedAt:     -1,
		memUsedBytes: 350e6, // resident OS baseline
	}, nil
}

// Demand-driven integration tuning.
const (
	// quiescentEpsC is how close (in kelvin) every sensor must sit to its
	// stable equilibrium before the integrator may leave the fine Euler
	// grid for the closed-form relaxation. Small enough that coarse-path
	// temperatures match the lock-step trajectory at any reporting
	// precision; large enough that idle nodes go quiescent within a
	// thermal time constant or two.
	quiescentEpsC = 1e-3
	// hotThresholdC is the junction temperature above which a node is
	// "hot": its watchdog refines to the base step so the trip latches at
	// the same substep as under lock-step integration.
	hotThresholdC = thermal.TripTempC - 10
	// syncSnapSec folds floating-point dust between independently
	// accumulated tick chains into the neighbouring substep instead of
	// emitting nanosecond-scale extra Euler steps.
	syncSnapSec = 1e-7
	// inputSetCap bounds a node's input-set table: a new set beyond it
	// replays the record and starts the table afresh.
	inputSetCap = 16
	// recordCap bounds a node's record of deferred intervals: reaching it
	// replays the record, so a node nobody reads holds at most this many.
	recordCap = 256
)

// ID returns the 1-based node number.
func (n *Node) ID() int { return n.id }

// Hostname returns the node's hostname ("mc01" ... "mc08").
func (n *Node) Hostname() string { return n.hostname }

// Machine returns the SoC model.
func (n *Node) Machine() *soc.Machine { return n.machine }

// PMU exposes the performance-counter unit (read by the pmu_pub plugin).
// Deferred intervals are replayed first, so the counters read as if every
// input change had integrated on the spot.
func (n *Node) PMU() *perf.PMU {
	n.replay()
	return n.pmu
}

// State returns the life-cycle state at the clock's current instant.
func (n *Node) State() State {
	n.observe()
	return n.state
}

// Workload returns the running workload name; empty when idle.
func (n *Node) Workload() string { return n.in.workload }

// SetClock installs the virtual-time source that makes the node
// demand-driven: public observations (temperatures, stats, hwmon reads,
// rail powers, state) first integrate the model lazily up to clock().
// With a nil clock (the default, and the lock-step ablation) observations
// return the state as of the last explicit Step, exactly as the global
// ticker left it.
func (n *Node) SetClock(clock func() float64) { n.clock = clock }

// SetBaseStep sets the internal Euler substep used while the node is
// thermally active (default 0.1 s, the paper runs' integration period).
// It must be positive and finite.
func (n *Node) SetBaseStep(h float64) error {
	if !(h > 0) || math.IsInf(h, 1) { // also rejects NaN
		return fmt.Errorf("node %s: base step must be positive and finite, got %v", n.hostname, h)
	}
	n.base = h
	n.gridNext = n.now + h
	return nil
}

// OnTransition registers the state-change notification callback (boot
// completion, thermal halt). The callback receives the virtual time the
// transition was integrated at, which can precede the engine clock when
// the transition is discovered during a lazy catch-up sync.
func (n *Node) OnTransition(fn func(kind Transition, at float64)) { n.onTransition = fn }

// OnInputChange registers a callback fired after any model input changes
// (workload, DVFS point, IO/net rates, power button, enclosure). The
// cluster uses it to re-plan the node's integration watchdog.
func (n *Node) OnInputChange(fn func()) { n.onInput = fn }

// ModelSteps returns the number of Euler substeps integrated so far — the
// physics cost metric the demand-driven refactor minimises (closed-form
// quiescent relaxations are not counted; they replace entire step runs,
// and deferred intervals count only once something replays them).
func (n *Node) ModelSteps() uint64 { return n.modelSteps }

// HaltedAt returns the virtual time the thermal trip halted the node, or
// -1 if it never tripped. The value is the integration substep that
// crossed the trip temperature, which makes halt times comparable across
// lock-step and demand-driven runs.
func (n *Node) HaltedAt() float64 { return n.haltedAt }

// BootDeadline returns the virtual time the current boot completes (only
// meaningful while booting). Exposing it — rather than having callers add
// R1Duration+R2Duration themselves — keeps deadline arithmetic correct if
// boot timings ever become configurable.
func (n *Node) BootDeadline() float64 { return n.poweredAt + R1Duration + R2Duration }

// observe lazily integrates up to the clock's current instant before a
// public read. No-op without a clock (lock-step mode) or while already
// integrating.
func (n *Node) observe() {
	if n.clock != nil && !n.syncing {
		n.SyncTo(n.clock())
	}
}

// settle accounts for the time up to the clock's instant under the
// current inputs, before a setter changes them. A running node whose
// inputs hold it on a stable equilibrium below the hot band — exactly when
// NextDeadline plans no watchdog — only records the interval (deferTo);
// anything that needs the integrated state replays the record first.
// Every other case integrates now, like observe.
func (n *Node) settle() {
	if n.clock == nil || n.syncing {
		return
	}
	if now := n.clock(); !n.deferTo(now) {
		n.SyncTo(now)
	}
}

// deferTo appends the interval up to t under the current inputs to the
// record instead of integrating it, and reports whether it could. Beyond
// the cool-running rule of settle, the junction must provably stay below
// the trip: recordHiC bounds the temperature over the record (from the
// integrated temperature where the record starts), and an interval is
// admitted only if its equilibrium lies at or above that bound or its
// leakage feedback still cools there (thermal.Model.CoolsAt). Its
// trajectory then stays at or below the larger of the two, so no
// transition can fire while the record replays.
func (n *Node) deferTo(t float64) bool {
	if n.state != StateRunning {
		return false
	}
	ss, stable := n.steady()
	if !stable || ss.CPU >= hotThresholdC {
		return false
	}
	from, hi := n.now, n.tm.Temp(thermal.SensorCPU)
	if k := len(n.record); k > 0 {
		from, hi = n.record[k-1].until, n.recordHiC
	}
	if t <= from {
		return true // nothing elapsed since the last sync or record
	}
	if socW, _ := n.inputPower(); hi > ss.CPU && !n.tm.CoolsAt(socW, hi) {
		return false
	}
	n.recordHiC = math.Max(hi, ss.CPU)
	n.record = append(n.record, interval{until: t, set: n.cur})
	if len(n.record) == recordCap {
		n.replay()
	}
	return true
}

// replay integrates the recorded intervals, each under its own inputs and
// through the same syncTo an eager input change would have run, then
// reinstates the current inputs. Nothing is notified: every recorded
// interval is cool running, so no transition can fire.
func (n *Node) replay() {
	if len(n.record) == 0 {
		return
	}
	in, cur := n.in, n.cur
	for _, iv := range n.record {
		n.in, n.cur = n.sets[iv.set].in, iv.set
		n.syncTo(iv.until)
		if n.state != StateRunning {
			// Invariant: deferTo admits only intervals that cannot trip.
			panic(fmt.Sprintf("node %s: %s while replaying deferred intervals", n.hostname, n.state))
		}
	}
	n.in, n.cur = in, cur
	n.record = n.record[:0]
}

// inputsChanged notifies the watchdog planner after a model input changed.
func (n *Node) inputsChanged() {
	n.cur = -1
	if n.onInput != nil {
		n.onInput()
	}
}

// environmentChanged empties the input-set table after the thermal
// environment changed (its equilibria were solved for the old one). The
// caller observed first, so the record no longer refers to it.
func (n *Node) environmentChanged() {
	n.sets = n.sets[:0]
	n.inputsChanged()
}

// current returns the input-set table entry of the current inputs. Only
// meaningful outside the boot phases.
func (n *Node) current() *inputSet {
	if n.cur < 0 {
		n.lookupInputs()
	}
	return &n.sets[n.cur]
}

// lookupInputs points cur at the table entry for the current inputs,
// deriving a new entry on first sight. A full table is replayed out (the
// record refers to its entries) and started afresh.
func (n *Node) lookupInputs() {
	running := n.state == StateRunning
	for i := range n.sets {
		if s := &n.sets[i]; s.running == running && s.in == n.in {
			n.cur = i
			return
		}
	}
	if len(n.sets) == inputSetCap {
		n.replay()
		n.sets = n.sets[:0]
	}
	s := inputSet{in: n.in, running: running}
	s.socW, s.nvmeW = n.totalMilliwatts()/1000, n.nvmeWatts()
	s.ss, s.stable = n.tm.Steady(s.socW, s.nvmeW)
	n.cur = len(n.sets)
	n.sets = append(n.sets, s)
}

// inputPower returns the SoC and NVMe power in watts for the current
// inputs: computed afresh while booting (the R2 ramp moves with time),
// from the input-set table otherwise.
func (n *Node) inputPower() (socW, nvmeW float64) {
	if n.state == StateBooting {
		return n.totalMilliwatts() / 1000, n.nvmeWatts()
	}
	s := n.current()
	return s.socW, s.nvmeW
}

// steady returns the thermal equilibrium for the current inputs, from the
// input-set table. Only meaningful outside the boot phases (power there
// depends on time, not just inputs).
func (n *Node) steady() (thermal.Steady, bool) {
	s := n.current()
	return s.ss, s.stable
}

// PowerOn presses the power button at virtual time now. Each compute node
// has its own 250 W PSU and can be powered individually.
func (n *Node) PowerOn(now float64) error {
	n.observe() // integrate the powered-off cooling up to this instant
	if n.state != StateOff {
		return fmt.Errorf("node %s: power-on in state %s", n.hostname, n.state)
	}
	n.state = StateBooting
	n.poweredAt = now
	n.now = now
	n.gridNext = now + n.base
	n.haltedAt = -1
	n.inputsChanged()
	return nil
}

// PowerOff cuts power, clearing any workload and thermal trip latch.
func (n *Node) PowerOff() {
	n.observe()
	n.state = StateOff
	n.in.workload = ""
	n.in.act = power.Activity{}
	n.in.rxBps, n.in.txBps, n.in.ioReadBps, n.in.ioWriteBps = 0, 0, 0, 0
	n.tm.ClearTrip()
	n.inputsChanged()
}

// Phase returns the power phase at the node's current time.
func (n *Node) Phase() power.Phase {
	n.observe()
	return n.phase()
}

// phase is Phase without the lazy sync, for use inside the integrator.
func (n *Node) phase() power.Phase {
	switch n.state {
	case StateOff, StateHalted:
		return power.PhaseOff
	case StateBooting:
		elapsed := n.now - n.poweredAt
		if elapsed < R1Duration {
			return power.PhaseR1
		}
		return power.PhaseR2
	default:
		return power.PhaseRun
	}
}

// SetWorkload installs a workload's activity profile (only meaningful on a
// running node). memBytes is the workload's resident set.
func (n *Node) SetWorkload(name string, act power.Activity, memBytes float64) error {
	n.settle() // account for the past under the old activity first
	if n.state != StateRunning {
		return fmt.Errorf("node %s: cannot run %q in state %s", n.hostname, name, n.state)
	}
	n.in.workload = name
	n.in.act = act
	n.memUsedBytes = 350e6 + memBytes
	n.inputsChanged()
	return nil
}

// ClearWorkload returns the node to idle.
func (n *Node) ClearWorkload() {
	n.settle()
	n.in.workload = ""
	n.in.act = power.Activity{}
	n.memUsedBytes = 350e6
	n.inputsChanged()
}

// SetNetRates sets the NIC receive/transmit rates in bytes/s (driven by the
// cluster network model).
func (n *Node) SetNetRates(rxBps, txBps float64) {
	n.settle()
	n.in.rxBps, n.in.txBps = rxBps, txBps
	n.inputsChanged()
}

// SetIORates sets NVMe read/write rates in bytes/s.
func (n *Node) SetIORates(readBps, writeBps float64) {
	n.settle()
	n.in.ioReadBps, n.in.ioWriteBps = readBps, writeBps
	n.inputsChanged()
}

// SetEnclosure switches the thermal enclosure configuration, integrating
// the past under the old environment first (the paper's airflow mitigation
// was applied to the live machine).
func (n *Node) SetEnclosure(enc thermal.Enclosure) error {
	n.observe()
	if err := n.tm.SetEnclosure(enc); err != nil {
		return err
	}
	n.environmentChanged()
	return nil
}

// InjectThermalFault layers an airflow defect (extra junction-to-air
// resistance, extra inlet-air rise) onto the node's slot environment,
// integrating the past under the healthy environment first. Fault
// campaigns use it to reproduce the node 7 failure mode on demand: a
// supercritical fault leaves the SoC with no equilibrium below 107 degC
// and the node walks the genuine runaway-to-trip path.
func (n *Node) InjectThermalFault(extraRthKW, extraAirRiseC float64) {
	n.observe()
	n.tm.InjectAirflowFault(extraRthKW, extraAirRiseC)
	n.environmentChanged()
}

// ClearThermalFault removes an injected airflow defect (the repair half of
// a fault cycle); the trip latch, if engaged, still needs a power cycle.
func (n *Node) ClearThermalFault() {
	n.observe()
	n.tm.ClearAirflowFault()
	n.environmentChanged()
}

// Activity returns the current workload activity profile.
func (n *Node) Activity() power.Activity { return n.in.act }

// MinFreqScale is the governor's lowest operating point (the U740's OPP
// table bottoms out around 40 % of nominal).
const MinFreqScale = 0.4

// SetFrequencyScale sets the DVFS operating point in [MinFreqScale, 1].
// Values outside the range clamp. The scale reduces the dynamic share of
// every rail and the instruction/cycle rates proportionally. Setting the
// current value again is not an input change (governors re-assert their
// operating point every control tick).
func (n *Node) SetFrequencyScale(s float64) {
	if s < MinFreqScale {
		s = MinFreqScale
	}
	if s > 1 {
		s = 1
	}
	if s == n.in.freqScale {
		return
	}
	n.settle()
	n.in.freqScale = s
	n.inputsChanged()
}

// FrequencyScale returns the current DVFS operating point.
func (n *Node) FrequencyScale() float64 { return n.in.freqScale }

// RailMilliwatts returns the instantaneous power of one rail, including
// the boot ramp from the R2 floor towards the OS idle floor during the
// last RampDuration seconds of the bootloader region, and the DVFS
// operating point while the OS runs.
func (n *Node) RailMilliwatts(r power.Rail) float64 {
	n.observe()
	return n.railMilliwatts(r)
}

// railMilliwatts is RailMilliwatts without the lazy sync (integrator use).
func (n *Node) railMilliwatts(r power.Rail) float64 {
	phase := n.phase()
	if phase == power.PhaseRun {
		return n.pm.RailMilliwattsScaled(r, phase, n.in.act, n.in.freqScale)
	}
	base := n.pm.RailMilliwatts(r, phase, n.in.act)
	if phase != power.PhaseR2 {
		return base
	}
	elapsed := n.now - n.poweredAt
	rampStart := R1Duration + R2Duration - RampDuration
	if elapsed <= rampStart {
		return base
	}
	frac := (elapsed - rampStart) / RampDuration
	idle := n.pm.RailMilliwatts(r, power.PhaseRun, power.Activity{})
	return base + frac*(idle-base)
}

// TotalMilliwatts sums all nine rails.
func (n *Node) TotalMilliwatts() float64 {
	n.observe()
	return n.totalMilliwatts()
}

func (n *Node) totalMilliwatts() float64 {
	total := 0.0
	for _, r := range power.Rails {
		total += n.railMilliwatts(r)
	}
	return total
}

// Temperature returns a sensor reading in degC.
func (n *Node) Temperature(s thermal.Sensor) float64 {
	n.observe()
	return n.tm.Temp(s)
}

// nvmeWatts models NVMe device power from IO activity.
func (n *Node) nvmeWatts() float64 {
	if n.state == StateOff || n.state == StateHalted {
		return 0
	}
	util := (n.in.ioReadBps + n.in.ioWriteBps) / 2.0e9 // ~2 GB/s device
	if util > 1 {
		util = 1
	}
	return 0.8 + 3.2*util
}

// Step advances the node to virtual time now with a single Euler step of
// dt = now - last step time. It updates boot progression, thermal state,
// performance counters and OS statistics, and halts the node on a thermal
// trip. Step is the lock-step primitive (the global ticker calls it every
// period); demand-driven callers use SyncTo, which sub-steps adaptively.
// Deferred intervals are replayed first.
func (n *Node) Step(now float64) {
	if n.syncing {
		return
	}
	n.syncing = true
	n.replay()
	n.step(now)
	n.syncing = false
}

// SyncTo integrates the node lazily up to virtual time target: fine Euler
// substeps of the base period while the node is thermally active (booting,
// relaxing, or anywhere near the trip temperature), one closed-form
// relaxation for the whole remaining interval once every sensor sits on
// its stable equilibrium. Counters and OS statistics advance exactly in
// either regime (they are linear or exponential in dt). Deferred
// intervals are replayed first. Reads through a demand-driven node call
// this automatically via the installed clock.
func (n *Node) SyncTo(target float64) {
	if n.syncing {
		return
	}
	n.syncing = true
	defer func() { n.syncing = false }()
	n.replay()
	n.syncTo(target)
}

// syncTo is SyncTo under the current inputs alone (no replay, no
// reentrancy guard).
func (n *Node) syncTo(target float64) {
	for {
		rem := target - n.now
		if rem <= syncSnapSec {
			// Fold tick-chain floating-point dust into the bookkeeping
			// clock instead of integrating a nanoscale substep.
			if rem > 0 {
				n.now = target
			}
			return
		}
		if n.state != StateBooting {
			if ss, stable := n.steady(); stable && n.tm.NearSteady(ss, quiescentEpsC) {
				n.relax(rem, ss)
				// The trajectory left the Euler grid; re-anchor it here.
				n.gridNext = n.now + n.base
				return
			}
		}
		if n.gridNext <= n.now {
			n.gridNext = n.now + n.base
		}
		switch {
		case target < n.gridNext-syncSnapSec:
			// Observation between grid points: partial step, grid intact
			// (the next substep completes the period, exactly like a
			// mid-period read interleaving with the lock-step ticker).
			n.step(target)
		case target <= n.gridNext+syncSnapSec:
			// The target IS the next grid point modulo accumulated
			// floating-point dust: take the grid step there and adopt
			// the caller's time as the new anchor.
			n.step(target)
			n.gridNext = target + n.base
		default:
			n.step(n.gridNext)
			n.gridNext += n.base
		}
	}
}

// step is one raw Euler substep to absolute time now (no reentrancy guard).
func (n *Node) step(now float64) {
	dt := now - n.now
	if dt < 0 {
		return
	}
	n.now = now
	if dt == 0 {
		return
	}
	n.modelSteps++
	// Boot progression. The snap tolerance keeps the flip on the same
	// substep whether the integration grid reaches the deadline as an
	// accumulated tick chain (which lands a few ulps short of the exact
	// sum) or as the exact boot-deadline wakeup of the demand-driven
	// watchdog.
	if n.state == StateBooting && now-n.poweredAt >= R1Duration+R2Duration-syncSnapSec {
		n.state = StateRunning
		n.cur = -1 // power moves from the boot ramp to the OS floor
		if n.onTransition != nil {
			n.onTransition(TransitionBootComplete, now)
		}
	}

	// Thermal: the SoC dissipates the sum of its rails.
	socW, nvmeW := n.inputPower()
	n.tm.Step(dt, socW, nvmeW)
	if n.tm.Tripped() && n.state != StateHalted {
		// Thermal hazard: the node stops executing (paper, Fig. 6).
		n.state = StateHalted
		n.haltedAt = now
		n.in.workload = ""
		n.in.act = power.Activity{}
		n.cur = -1 // power collapsed with the halt
		if n.onTransition != nil {
			n.onTransition(TransitionHalt, now)
		}
	}

	if n.state != StateRunning {
		return
	}
	n.advanceCounters(dt)
}

// relax advances dt seconds through the quiescent fast path: closed-form
// thermal relaxation plus the exact counter updates, with no Euler steps.
func (n *Node) relax(dt float64, ss thermal.Steady) {
	n.tm.RelaxToward(dt, ss)
	n.now += dt
	if n.state == StateRunning {
		n.advanceCounters(dt)
	}
}

// advanceCounters accumulates the performance counters and OS statistics
// over dt seconds of constant activity. Every update is linear or
// exponential in dt, so splitting an interval into substeps and advancing
// it whole agree to floating-point precision.
func (n *Node) advanceCounters(dt float64) {
	// Performance counters.
	n.pmu.Advance(dt, perf.Load{
		CoreActivity:        n.in.act.CoreActivity,
		DDRReadBytesPerSec:  n.in.act.DDRReadGBs * 1e9,
		DDRWriteBytesPerSec: n.in.act.DDRWriteGBs * 1e9,
		ClockScale:          n.in.freqScale,
	})

	// OS statistics.
	runnable := float64(n.machine.Cores) * n.in.act.CoreActivity
	if n.in.workload != "" && runnable < 1 {
		runnable = 1 // at least the benchmark process
	}
	if dt != n.ewmaDt {
		n.ewmaDt = dt
		n.alpha1, n.alpha5, n.alpha15 = ewmaAlpha(dt, 60), ewmaAlpha(dt, 300), ewmaAlpha(dt, 900)
	}
	n.load1 += (runnable - n.load1) * n.alpha1
	n.load5 += (runnable - n.load5) * n.alpha5
	n.load15 += (runnable - n.load15) * n.alpha15
	n.rxTotal += n.in.rxBps * dt
	n.txTotal += n.in.txBps * dt
	n.ioReadTotal += n.in.ioReadBps * dt
	n.ioWriteTotal += n.in.ioWriteBps * dt
	// Interrupts: timer ticks (250 Hz/core) plus NIC interrupts; context
	// switches track interrupts plus scheduler activity.
	n.intsTotal += dt * (250*float64(n.machine.Cores) + n.in.rxBps/8e3)
	n.cswTotal += dt * (400 + 2000*n.in.act.CoreActivity)
	n.procsNewTotal += dt * 2
}

// NextDeadline returns the latest virtual time by which the node must be
// re-synced so state transitions (boot completion, thermal trip) are
// integrated when they happen, or +Inf when the node can idle
// indefinitely (observations still integrate it on demand). The cluster
// schedules one watchdog event per node at this time in demand-driven
// mode.
func (n *Node) NextDeadline() float64 {
	switch n.state {
	case StateBooting:
		return n.BootDeadline()
	case StateRunning:
		ss, stable := n.steady()
		if stable && ss.CPU < hotThresholdC {
			return math.Inf(1) // can never trip under current inputs
		}
		n.replay() // the crossing bound starts from the integrated state
		socW, _ := n.inputPower()
		// The trajectory can reach hazardous temperatures: refine to the
		// base step inside the hot band so the trip latches on the same
		// substep as under lock-step integration, and back off towards
		// the conservative crossing bound while still cool (the 0.9
		// margin absorbs Euler's slightly-faster-than-exponential
		// approach). Deadlines are whole grid periods so watchdog syncs
		// never split Euler steps.
		periods := math.Floor(0.9 * n.tm.TimeToReach(socW, hotThresholdC) / n.base)
		if periods < 1 {
			periods = 1
		}
		return n.now + periods*n.base
	default:
		return math.Inf(1)
	}
}

func ewmaAlpha(dt, tau float64) float64 {
	a := 1 - math.Exp(-dt/tau)
	return a
}

// Stats is a snapshot of the OS metrics the stats_pub plugin publishes
// (Table III).
type Stats struct {
	Load1, Load5, Load15                   float64
	IORead, IOWrite                        float64 // cumulative bytes
	ProcsRun, ProcsBlk, ProcsNew           float64
	MemUsed, MemFree, MemBuff, MemCach     float64 // bytes
	PagingIn, PagingOut                    float64
	DiskRead, DiskWrite                    float64 // cumulative bytes
	SystemInt, SystemCsw                   float64 // cumulative
	CPUUsr, CPUSys, CPUIdl, CPUWai, CPUStl float64 // percent
	NetRecv, NetSend                       float64 // cumulative bytes
	TempMB, TempCPU, TempNVMe              float64 // degC
}

// Stats returns the current OS statistics snapshot.
func (n *Node) Stats() Stats {
	n.observe()
	usr := 100 * n.in.act.CoreActivity
	sys := 1.5
	wai := 0.0
	if n.in.ioReadBps+n.in.ioWriteBps > 0 {
		wai = 2.0
	}
	idl := 100 - usr - sys - wai
	if idl < 0 {
		idl = 0
	}
	total := float64(n.machine.DDRBytes)
	buff := 0.02 * total
	cach := 0.10 * total
	free := total - n.memUsedBytes - buff - cach
	if free < 0 {
		free = 0
	}
	return Stats{
		Load1: n.load1, Load5: n.load5, Load15: n.load15,
		IORead: n.ioReadTotal, IOWrite: n.ioWriteTotal,
		ProcsRun: math.Round(n.load1), ProcsBlk: 0, ProcsNew: n.procsNewTotal,
		MemUsed: n.memUsedBytes, MemFree: free, MemBuff: buff, MemCach: cach,
		PagingIn: 0, PagingOut: 0,
		DiskRead: n.ioReadTotal, DiskWrite: n.ioWriteTotal,
		SystemInt: n.intsTotal, SystemCsw: n.cswTotal,
		CPUUsr: usr, CPUSys: sys, CPUIdl: idl, CPUWai: wai, CPUStl: 0,
		NetRecv: n.rxTotal, NetSend: n.txTotal,
		TempMB: n.tm.Temp(thermal.SensorMB), TempCPU: n.tm.Temp(thermal.SensorCPU),
		TempNVMe: n.tm.Temp(thermal.SensorNVMe),
	}
}

// Hwmon sysfs paths for the three temperature sensors (Table IV).
const (
	HwmonNVMePath = "/sys/class/hwmon/hwmon0/temp1_input"
	HwmonMBPath   = "/sys/class/hwmon/hwmon1/temp1_input"
	HwmonCPUPath  = "/sys/class/hwmon/hwmon1/temp2_input"
)

// ReadHwmon reads a temperature sensor through its sysfs path, returning
// millidegrees Celsius as the kernel hwmon interface does.
func (n *Node) ReadHwmon(path string) (int64, error) {
	n.observe()
	var s thermal.Sensor
	switch path {
	case HwmonNVMePath:
		s = thermal.SensorNVMe
	case HwmonMBPath:
		s = thermal.SensorMB
	case HwmonCPUPath:
		s = thermal.SensorCPU
	default:
		return 0, fmt.Errorf("node %s: no hwmon entry %q", n.hostname, path)
	}
	if n.state == StateOff {
		return 0, fmt.Errorf("node %s: hwmon read while powered off", n.hostname)
	}
	return int64(math.Round(n.tm.Temp(s) * 1000)), nil
}
