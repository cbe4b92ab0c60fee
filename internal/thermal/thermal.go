// Package thermal models the thermal behaviour of the Monte Cimone blades.
//
// Each E4 RV007 blade is a 1U case holding two HiFive Unmatched boards and
// two 250 W PSUs. The paper reports (Fig. 6) that with the original lid-on
// enclosure the nodes in the centre blades ran significantly hotter than
// the rest because of a suboptimal airflow design that failed to remove the
// PSU heat, and that node 7 entered a thermal runaway during the first HPL
// runs, reaching 107 degC and halting. Removing the lid and increasing the
// vertical blade spacing dropped the hottest node from 71 degC to 39 degC.
//
// The model is a first-order RC network per sensor (SoC, motherboard, NVMe)
// with a per-slot inlet-air rise and junction-to-air resistance, plus an
// exponential leakage-temperature feedback (leakage power doubling every
// ~22 K, the usual silicon rule of thumb) that produces genuine thermal
// runaway — not merely a high steady state — on the obstructed slot of
// node 7.
package thermal

import (
	"fmt"
	"math"
)

// Sensor identifies one of the three on-board temperature sensors exposed
// through the hwmon sysfs interface (Table IV).
type Sensor int

// The three sensors of Table IV.
const (
	SensorCPU  Sensor = iota + 1 // SoC junction (hwmon1/temp2_input)
	SensorMB                     // motherboard   (hwmon1/temp1_input)
	SensorNVMe                   // NVMe SSD      (hwmon0/temp1_input)
)

// String returns the paper's sensor name.
func (s Sensor) String() string {
	switch s {
	case SensorCPU:
		return "cpu_temp"
	case SensorMB:
		return "mb_temp"
	case SensorNVMe:
		return "nvme_temp"
	default:
		return fmt.Sprintf("Sensor(%d)", int(s))
	}
}

// Sensors lists all three sensors.
var Sensors = []Sensor{SensorCPU, SensorMB, SensorNVMe}

// TripTempC is the SoC temperature at which a node halts execution; the
// paper observed node 7 stop at 107 degC.
const TripTempC = 107.0

// Enclosure describes the chassis configuration.
type Enclosure struct {
	// AmbientC is the machine-room inlet temperature.
	AmbientC float64
	// LidOn selects the original (faulty) airflow configuration; false is
	// the paper's mitigation (lid removed, increased vertical spacing).
	LidOn bool
}

// DefaultEnclosure returns the original configuration the cluster was first
// assembled with: 25 degC room, lids on.
func DefaultEnclosure() Enclosure {
	return Enclosure{AmbientC: 25, LidOn: true}
}

// SlotEnv is the thermal environment of one node slot.
type SlotEnv struct {
	// AirRiseC is the slot's inlet-air temperature rise over ambient
	// caused by PSU and neighbour heat.
	AirRiseC float64
	// RthKW is the SoC junction-to-air thermal resistance in K/W;
	// obstructed airflow raises it.
	RthKW float64
}

// NumSlots is the number of compute-node slots (eight nodes, four blades).
const NumSlots = 8

// Per-slot environments, lid on. Blades hold node pairs (1,2) (3,4) (5,6)
// (7,8); the centre of the stack runs hottest and the slot of node 7 sits
// in the PSU exhaust path — the airflow defect the paper discovered.
// Calibrated so steady HPL temperature is ~71 degC on the hot centre slots
// and supercritical (runaway to the 107 degC trip) on slot 7; see
// EXPERIMENTS.md for the calibration.
var lidOnEnv = [NumSlots]SlotEnv{
	{AirRiseC: 8, RthKW: 2.80},  // node 1
	{AirRiseC: 9, RthKW: 2.80},  // node 2
	{AirRiseC: 16, RthKW: 4.18}, // node 3 (centre)
	{AirRiseC: 16, RthKW: 4.18}, // node 4 (centre)
	{AirRiseC: 16, RthKW: 4.18}, // node 5 (centre)
	{AirRiseC: 16, RthKW: 4.18}, // node 6 (centre)
	{AirRiseC: 18, RthKW: 5.96}, // node 7 (PSU exhaust path: runaway under load)
	{AirRiseC: 10, RthKW: 3.00}, // node 8
}

// Per-slot environments after the mitigation (lid off, wider spacing).
var lidOffEnv = [NumSlots]SlotEnv{
	{AirRiseC: 1, RthKW: 1.90},
	{AirRiseC: 1, RthKW: 1.90},
	{AirRiseC: 2, RthKW: 2.00},
	{AirRiseC: 2, RthKW: 2.00},
	{AirRiseC: 2, RthKW: 2.00},
	{AirRiseC: 2, RthKW: 2.00},
	{AirRiseC: 2, RthKW: 2.08}, // hottest node lands at ~39 degC under HPL
	{AirRiseC: 1, RthKW: 1.95},
}

// Environment returns the slot environment for a 0-based slot index under
// the given enclosure configuration.
func Environment(enc Enclosure, slot int) (SlotEnv, error) {
	if slot < 0 || slot >= NumSlots {
		return SlotEnv{}, fmt.Errorf("thermal: slot %d out of range [0,%d)", slot, NumSlots)
	}
	if enc.LidOn {
		return lidOnEnv[slot], nil
	}
	return lidOffEnv[slot], nil
}

// Leakage feedback constants: the SoC's leakage component (0.984 W measured
// in boot region R1, at a junction near refTempC) doubles every
// leakDoubleC kelvin.
const (
	leakRefW    = 0.984
	refTempC    = 45.0
	leakDoubleC = 22.0
)

// effectivePower adds the temperature-dependent leakage excess to a rail
// power that was measured near refTempC. A powered-off node (socW <= 0)
// dissipates nothing, and the correction never drives a powered node below
// a tenth of its measured draw.
func effectivePower(socW, tempC float64) float64 {
	if socW <= 0 {
		return 0
	}
	p := socW + leakRefW*(math.Exp2((tempC-refTempC)/leakDoubleC)-1)
	if floor := 0.1 * socW; p < floor {
		return floor
	}
	return p
}

// Thermal time constants (seconds) for the first-order sensor dynamics.
const (
	tauCPU  = 40.0  // small heatsink with top fan
	tauMB   = 150.0 // board copper mass
	tauNVMe = 90.0
)

// Model tracks the three sensor temperatures of one node.
type Model struct {
	enc  Enclosure
	env  SlotEnv
	slot int

	// Airflow-fault injection (chaos campaigns): extra junction-to-air
	// resistance and inlet-air rise layered on top of the slot environment,
	// modelling a failed fan or a blocked exhaust path. Large enough values
	// leave the SoC with no equilibrium below the trip point — the same
	// genuine runaway mechanism the slot of node 7 exhibits under load.
	faultRthKW    float64
	faultAirRiseC float64

	cpuC  float64
	mbC   float64
	nvmeC float64

	tripped bool
}

// NewModel returns a node thermal model for the given slot, initialised to
// the slot's zero-power air temperatures (a cold, powered-off node).
func NewModel(enc Enclosure, slot int) (*Model, error) {
	env, err := Environment(enc, slot)
	if err != nil {
		return nil, err
	}
	return &Model{
		enc:   enc,
		env:   env,
		slot:  slot,
		cpuC:  enc.AmbientC + env.AirRiseC,
		mbC:   enc.AmbientC + 0.8*env.AirRiseC,
		nvmeC: enc.AmbientC + 0.5*env.AirRiseC,
	}, nil
}

// Slot returns the 0-based slot index the model was built for.
func (m *Model) Slot() int { return m.slot }

// SetEnclosure switches the enclosure configuration in place (the paper's
// mitigation was applied to the assembled cluster); temperatures then relax
// towards the new equilibria.
func (m *Model) SetEnclosure(enc Enclosure) error {
	env, err := Environment(enc, m.slot)
	if err != nil {
		return err
	}
	m.enc = enc
	m.env = env
	return nil
}

// InjectAirflowFault layers an airflow defect onto the slot environment:
// extraRthKW of junction-to-air resistance and extraAirRiseC of inlet-air
// rise (a failed fan, a blocked exhaust). The fault shifts every
// equilibrium the model solves — Step, Steady, TimeToReach and the
// runaway check all see it — so a sufficiently large fault drives the
// node through the exact 107 degC trip path the paper observed on node 7.
// Negative values are clamped to zero.
func (m *Model) InjectAirflowFault(extraRthKW, extraAirRiseC float64) {
	if extraRthKW < 0 {
		extraRthKW = 0
	}
	if extraAirRiseC < 0 {
		extraAirRiseC = 0
	}
	m.faultRthKW = extraRthKW
	m.faultAirRiseC = extraAirRiseC
}

// ClearAirflowFault removes an injected airflow defect (the repair half of
// a fault cycle; the node still needs a power cycle to clear the latch).
func (m *Model) ClearAirflowFault() { m.faultRthKW, m.faultAirRiseC = 0, 0 }

// airRiseC and rthKW are the effective slot parameters including any
// injected airflow fault.
func (m *Model) airRiseC() float64 { return m.env.AirRiseC + m.faultAirRiseC }
func (m *Model) rthKW() float64    { return m.env.RthKW + m.faultRthKW }

// Step advances the model by dt seconds with the node drawing socW on the
// SoC rails and nvmeW on the NVMe device. Once the SoC crosses the trip
// temperature the trip latches and the temperature saturates there (the
// node halts, power collapses and the real die would cool; the latch is
// what the cluster reacts to).
func (m *Model) Step(dt, socW, nvmeW float64) {
	if dt <= 0 {
		return
	}
	air := m.enc.AmbientC + m.airRiseC()
	cpuSS := air + m.rthKW()*effectivePower(socW, m.cpuC)
	mbSS := m.enc.AmbientC + 0.8*m.airRiseC() + 1.2*socW
	nvmeSS := m.enc.AmbientC + 0.5*m.airRiseC() + 8.0*nvmeW

	m.cpuC += (cpuSS - m.cpuC) * clampStep(dt/tauCPU)
	m.mbC += (mbSS - m.mbC) * clampStep(dt/tauMB)
	m.nvmeC += (nvmeSS - m.nvmeC) * clampStep(dt/tauNVMe)

	if m.cpuC >= TripTempC {
		m.cpuC = TripTempC
		m.tripped = true
	}
}

// clampStep keeps the explicit Euler update stable for large dt.
func clampStep(x float64) float64 {
	if x > 1 {
		return 1
	}
	return x
}

// Temp returns the current temperature of a sensor in degC.
func (m *Model) Temp(s Sensor) float64 {
	switch s {
	case SensorCPU:
		return m.cpuC
	case SensorMB:
		return m.mbC
	case SensorNVMe:
		return m.nvmeC
	default:
		return 0
	}
}

// Tripped reports whether the SoC hit the 107 degC thermal hazard; the
// condition is latched until ClearTrip.
func (m *Model) Tripped() bool { return m.tripped }

// ClearTrip resets the latched trip (node power-cycled after cooling).
func (m *Model) ClearTrip() { m.tripped = false }

// Steady is the equilibrium temperature vector for a constant power input.
type Steady struct {
	CPU, MB, NVMe float64
}

// Steady solves the equilibrium of all three sensors for constant socW and
// nvmeW. Stable is false when the SoC has no equilibrium below the trip
// point (thermal runaway); CPU then holds the trip temperature.
func (m *Model) Steady(socW, nvmeW float64) (Steady, bool) {
	cpu, stable := m.SteadyStateCPU(socW)
	return Steady{
		CPU:  cpu,
		MB:   m.enc.AmbientC + 0.8*m.airRiseC() + 1.2*socW,
		NVMe: m.enc.AmbientC + 0.5*m.airRiseC() + 8.0*nvmeW,
	}, stable
}

// NearSteady reports whether all three sensors sit within eps of the
// given (caller-solved, typically cached) equilibrium.
func (m *Model) NearSteady(ss Steady, eps float64) bool {
	return math.Abs(m.cpuC-ss.CPU) <= eps &&
		math.Abs(m.mbC-ss.MB) <= eps &&
		math.Abs(m.nvmeC-ss.NVMe) <= eps
}

// RelaxToward advances the model by dt seconds using the closed-form
// exponential solution towards a caller-solved (typically cached)
// equilibrium instead of Euler substeps. It is only accurate when every
// sensor already sits near that equilibrium (NearSteady), which is then
// effectively constant over the step. The trip latch cannot engage here:
// the equilibrium of a quiescent node is stable and below the trip point.
func (m *Model) RelaxToward(dt float64, ss Steady) {
	if dt <= 0 {
		return
	}
	m.cpuC = ss.CPU + (m.cpuC-ss.CPU)*math.Exp(-dt/tauCPU)
	m.mbC = ss.MB + (m.mbC-ss.MB)*math.Exp(-dt/tauMB)
	m.nvmeC = ss.NVMe + (m.nvmeC-ss.NVMe)*math.Exp(-dt/tauNVMe)
}

// TimeToReach returns a conservative lower bound (in seconds) on the time
// for the SoC sensor to first reach targetC under constant socW, or +Inf
// when the trajectory can never get there. The bound uses the largest
// instantaneous equilibrium the leakage feedback can produce below the
// trip point, so the true crossing always happens at or after the returned
// time — watchdog wakeups based on it can only be early, never late.
func (m *Model) TimeToReach(socW, targetC float64) float64 {
	if m.cpuC >= targetC {
		return 0
	}
	air := m.enc.AmbientC + m.airRiseC()
	ssBound := air + m.rthKW()*effectivePower(socW, TripTempC)
	if ssBound <= targetC {
		return math.Inf(1)
	}
	return tauCPU * math.Log((ssBound-m.cpuC)/(ssBound-targetC))
}

// steadyIterations bounds the fixed-point solve in SteadyStateCPU. The
// iteration climbs monotonically from the air temperature, so it always
// ends by converging or by crossing the trip point; near the critical
// power it crawls (the slowest convergent case on a probe grid of slots,
// enclosures, 15-40 degC rooms, airflow faults and 0-8 W in 10 mW steps
// took 8,606 iterations), and the bound only stops a pathological crawl.
const steadyIterations = 1_000_000

// SteadyStateCPU solves the equilibrium SoC temperature for a constant
// power draw, accounting for the leakage feedback. The boolean is false
// when the slot has no stable equilibrium below the trip point (thermal
// runaway), in which case the trip temperature is returned; a solve that
// does not converge within its iteration budget reports runaway too,
// never an equilibrium it did not find.
func (m *Model) SteadyStateCPU(socW float64) (float64, bool) {
	air := m.enc.AmbientC + m.airRiseC()
	t := air
	for i := 0; i < steadyIterations; i++ {
		next := air + m.rthKW()*effectivePower(socW, t)
		if next >= TripTempC {
			return TripTempC, false
		}
		if math.Abs(next-t) < 1e-9 {
			return next, true
		}
		t = next
	}
	return TripTempC, false
}

// CoolsAt reports whether a SoC junction at tempC under a constant socW is
// pulled down, not up: its instantaneous equilibrium (slot air plus the
// junction rise at the leakage of tempC) lies below tempC. The leakage
// feedback is convex in temperature, so above a stable equilibrium this
// holds exactly up to the unstable one: every trajectory that starts at
// or below such a tempC stays at or below it, and cannot run away.
func (m *Model) CoolsAt(socW, tempC float64) bool {
	return m.enc.AmbientC+m.airRiseC()+m.rthKW()*effectivePower(socW, tempC) < tempC
}
