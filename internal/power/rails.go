// Package power models the nine measured power rails of the HiFive
// Unmatched board hosting the SiFive Freedom U740 SoC. The board exposes a
// shunt resistor in series with each SoC power rail and with the on-board
// memory banks; the paper samples these shunts to produce Table VI, the
// workload traces of Fig. 3 and the boot trace of Fig. 4.
//
// The model is a per-rail linear law: a boot-phase-dependent floor (leakage
// only in R1, leakage + clock tree in R2, full idle once the OS runs) plus
// activity terms driven by a workload's issue-slot utilisation, DDR
// read/write traffic and PCIe activity. The coefficients are least-squares
// calibrated against the paper's Table VI and reproduce the measured totals
// within a few percent; per-rail deviations are recorded in EXPERIMENTS.md.
package power

import "fmt"

// Rail identifies one of the nine monitored power rails.
type Rail string

// The nine power rails of Table VI, in table order.
const (
	RailCore    Rail = "core"    // U74 core complex
	RailDDRSoC  Rail = "ddr_soc" // DDR controller (SoC side)
	RailIO      Rail = "io"      // IO pads
	RailPLL     Rail = "pll"     // core PLL
	RailPCIeVP  Rail = "pcievp"  // PCIe core rail
	RailPCIeVPH Rail = "pcievph" // PCIe PHY rail
	RailDDRMem  Rail = "ddr_mem" // on-board DDR4 memory banks
	RailDDRPLL  Rail = "ddr_pll" // DDR PLL
	RailDDRVpp  Rail = "ddr_vpp" // DDR Vpp (activation) supply
)

// Rails lists all monitored rails in Table VI order.
var Rails = []Rail{
	RailCore, RailDDRSoC, RailIO, RailPLL, RailPCIeVP,
	RailPCIeVPH, RailDDRMem, RailDDRPLL, RailDDRVpp,
}

// Phase is the node's power state, following the boot regions of Fig. 4.
type Phase int

// Boot phases: R1 is power-on with no clock (leakage only), R2 is the
// bootloader with the PLL active (leakage + clock tree), Run is the
// operating system executing (R3 of the paper and every later workload
// region).
const (
	PhaseOff Phase = iota + 1
	PhaseR1
	PhaseR2
	PhaseRun
)

// String names the phase as in the paper's Fig. 4 annotations.
func (p Phase) String() string {
	switch p {
	case PhaseOff:
		return "off"
	case PhaseR1:
		return "R1"
	case PhaseR2:
		return "R2"
	case PhaseRun:
		return "R3"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Activity characterises a running workload's demand on the SoC.
// The zero value is the idle OS (Table VI "Idle" column).
type Activity struct {
	// CoreActivity is the fraction of issue slots the workload keeps busy,
	// in [0,1]. For compute benchmarks it coincides with the attained
	// fraction of FPU peak (46.5 % for HPL on Monte Cimone).
	CoreActivity float64
	// DDRReadGBs and DDRWriteGBs are main-memory traffic in GB/s.
	DDRReadGBs  float64
	DDRWriteGBs float64
	// L2GBs is L2 cache traffic in GB/s (drives controller-side power).
	L2GBs float64
	// PCIeActivity is relative PCIe link utilisation in [0,1].
	PCIeActivity float64
}

// Preset activities for the paper's workload columns in Table VI. The core
// activities equal the measured FPU utilisations (HPL 46.5 %, QE 36 % with
// LAX overheads, STREAM values from the attained bandwidth fractions);
// traffic figures derive from the kernels' bytes/flop ratios.
var (
	// ActivityIdle is the idle operating system.
	ActivityIdle = Activity{}
	// ActivityHPL is the HPL benchmark at N=40704 on one node.
	ActivityHPL = Activity{CoreActivity: 0.465, DDRReadGBs: 0.80, DDRWriteGBs: 0.10, L2GBs: 8.0, PCIeActivity: 0.02}
	// ActivityStreamL2 is STREAM with a 1.1 MiB, L2-resident set.
	ActivityStreamL2 = Activity{CoreActivity: 0.291, DDRReadGBs: 0.05, DDRWriteGBs: 0.05, L2GBs: 14.2, PCIeActivity: 0.02}
	// ActivityStreamDDR is STREAM with a 1945.5 MiB, DDR-resident set.
	ActivityStreamDDR = Activity{CoreActivity: 0.096, DDRReadGBs: 1.50, DDRWriteGBs: 0.75, L2GBs: 2.3, PCIeActivity: 0.02}
	// ActivityQE is the quantumESPRESSO LAX driver on a 512^2 matrix.
	ActivityQE = Activity{CoreActivity: 0.341, DDRReadGBs: 0.75, DDRWriteGBs: 0.15, L2GBs: 8.5, PCIeActivity: 0.10}
)

// Workload-name resolution lives in the workload registry
// (internal/workload.Lookup), the single mapping from benchmark names to
// these calibrated profiles; this package only owns the physics.

// numRails sizes the per-rail coefficient arrays.
const numRails = 9

// railIndex maps a rail name to its Table VI position, or -1 for an
// unknown rail. Rail evaluation sits inside every node's power integration
// step; indexing arrays here instead of hashing string-keyed maps is what
// keeps it off the CPU profile.
func railIndex(r Rail) int {
	switch r {
	case RailCore:
		return 0
	case RailDDRSoC:
		return 1
	case RailIO:
		return 2
	case RailPLL:
		return 3
	case RailPCIeVP:
		return 4
	case RailPCIeVPH:
		return 5
	case RailDDRMem:
		return 6
	case RailDDRPLL:
		return 7
	case RailDDRVpp:
		return 8
	default:
		return -1
	}
}

// railTable holds one coefficient per rail, in Table VI order.
type railTable [numRails]float64

// Model evaluates per-rail power for a phase and activity. Calibration
// returns the calibrated one; the zero value has zero coefficients
// everywhere.
type Model struct {
	// Floors per phase, mW.
	r1Floor  railTable
	r2Floor  railTable
	runFloor railTable

	// Activity coefficients, mW per unit of the respective metric.
	coreActCoef railTable // x CoreActivity
	ddrReadCoef railTable // x DDRReadGBs
	ddrWritCoef railTable // x DDRWriteGBs
	l2Coef      railTable // x L2GBs
	pcieCoef    railTable // x PCIeActivity
}

// Coefficient order within each railTable literal below:
// core, ddr_soc, io, pll, pcievp, pcievph, ddr_mem, ddr_pll, ddr_vpp.

// unmatched is the HiFive Unmatched calibration.
var unmatched = &Model{
	// Fig. 4 region R1: supply on, no clock. Pure leakage.
	r1Floor: railTable{984, 59, 5, 0, 12, 1, 275, 0, 49},
	// Fig. 4 region R2: bootloader running, PLL active, DDR training.
	// core = leakage (984) + clock tree and boot dynamic (1577).
	r2Floor: railTable{2561, 197, 20, 2, 231, 395, 467, 29, 122},
	// Table VI "Idle" column: OS up, no workload.
	runFloor: railTable{3075, 139, 20, 1, 521, 555, 404, 28, 67},
	// Least-squares fit of the four workload columns of Table VI.
	coreActCoef: railTable{0: 2193, 4: 12, 5: 4, 8: 24},
	ddrReadCoef: railTable{0: 2.5, 1: 37, 6: 18, 8: 10},
	ddrWritCoef: railTable{0: 2.5, 1: 37, 6: 214, 8: 10},
	l2Coef:      railTable{1: 1.2},
	pcieCoef:    railTable{4: 20, 5: 25},
}

// Calibration returns the HiFive Unmatched calibration as one instance
// shared by every caller. A Model has no method that changes it, so
// every node and every predictor reads the same tables instead of
// holding a copy of its own.
func Calibration() *Model { return unmatched }

// RailMilliwatts returns the modelled power of one rail in milliwatts.
// Unknown rails are zero in every phase, as with the historical map-based
// coefficient tables.
func (m *Model) RailMilliwatts(r Rail, phase Phase, act Activity) float64 {
	i := railIndex(r)
	if i < 0 {
		return 0
	}
	return m.railMilliwattsAt(i, phase, act)
}

func (m *Model) railMilliwattsAt(i int, phase Phase, act Activity) float64 {
	switch phase {
	case PhaseOff:
		return 0
	case PhaseR1:
		return m.r1Floor[i]
	case PhaseR2:
		return m.r2Floor[i]
	case PhaseRun:
		return m.runFloor[i] +
			m.coreActCoef[i]*clamp01(act.CoreActivity) +
			m.ddrReadCoef[i]*nonNeg(act.DDRReadGBs) +
			m.ddrWritCoef[i]*nonNeg(act.DDRWriteGBs) +
			m.l2Coef[i]*nonNeg(act.L2GBs) +
			m.pcieCoef[i]*clamp01(act.PCIeActivity)
	default:
		return 0
	}
}

// RailMilliwattsScaled returns the rail power with the dynamic (above
// leakage) share scaled by freqScale in [0,1] — the first-order effect of
// frequency scaling at constant voltage, used by the dynamic thermal
// management governor (the paper's future work item ii). Boot phases and
// the off state are unaffected.
func (m *Model) RailMilliwattsScaled(r Rail, phase Phase, act Activity, freqScale float64) float64 {
	i := railIndex(r)
	if i < 0 {
		return 0
	}
	full := m.railMilliwattsAt(i, phase, act)
	if phase != PhaseRun {
		return full
	}
	if freqScale < 0 {
		freqScale = 0
	}
	if freqScale > 1 {
		freqScale = 1
	}
	leak := m.r1Floor[i]
	if full < leak {
		leak = full
	}
	return leak + (full-leak)*freqScale
}

// Breakdown returns all rail powers in milliwatts.
func (m *Model) Breakdown(phase Phase, act Activity) map[Rail]float64 {
	out := make(map[Rail]float64, len(Rails))
	for _, r := range Rails {
		out[r] = m.RailMilliwatts(r, phase, act)
	}
	return out
}

// TotalMilliwatts returns the sum over all nine rails.
func (m *Model) TotalMilliwatts(phase Phase, act Activity) float64 {
	total := 0.0
	for _, r := range Rails {
		total += m.RailMilliwatts(r, phase, act)
	}
	return total
}

// BootTable is a booting board's rail power (Fig. 4) tabulated from a
// model: each rail's R1 and R2 floors with their nine-rail totals, and
// the OS idle floor that power ramps toward at the end of R2. Boot power
// depends on no workload activity, so a booting node reads it from here
// as a function of its boot progress alone.
type BootTable struct {
	r1, r2, idle     railTable
	r1Total, r2Total float64
}

// BootTable tabulates m's boot power.
func (m *Model) BootTable() *BootTable {
	b := &BootTable{}
	for i := range b.r1 {
		b.r1[i] = m.railMilliwattsAt(i, PhaseR1, ActivityIdle)
		b.r2[i] = m.railMilliwattsAt(i, PhaseR2, ActivityIdle)
		b.idle[i] = m.railMilliwattsAt(i, PhaseRun, ActivityIdle)
		b.r1Total += b.r1[i]
		b.r2Total += b.r2[i]
	}
	return b
}

// RailMilliwatts returns rail r's power in boot phase R1 or R2, and zero
// in any other phase and for an unknown rail. ramp is how far the end of
// R2 has carried power from the R2 floor toward the idle floor: 0 before
// the ramp starts, rising to 1 as the OS comes up.
func (b *BootTable) RailMilliwatts(r Rail, phase Phase, ramp float64) float64 {
	i := railIndex(r)
	if i < 0 {
		return 0
	}
	return b.rail(i, phase, ramp)
}

// TotalMilliwatts returns the sum of RailMilliwatts over Rails, added in
// Rails order: a tabulated constant in R1 and in R2 before the ramp.
func (b *BootTable) TotalMilliwatts(phase Phase, ramp float64) float64 {
	switch {
	case phase == PhaseR1:
		return b.r1Total
	case phase == PhaseR2 && ramp <= 0:
		return b.r2Total
	}
	total := 0.0
	for i := range b.r2 {
		total += b.rail(i, phase, ramp)
	}
	return total
}

func (b *BootTable) rail(i int, phase Phase, ramp float64) float64 {
	switch {
	case phase == PhaseR1:
		return b.r1[i]
	case phase != PhaseR2:
		return 0
	case ramp > 0:
		return b.r2[i] + ramp*(b.idle[i]-b.r2[i])
	default:
		return b.r2[i]
	}
}

// CoreDecomposition reports the three components of the idle core power
// derived from the boot regions of Fig. 4: leakage (R1), dynamic + clock
// tree (R2 - R1) and operating-system power (idle - R2), in milliwatts.
func (m *Model) CoreDecomposition() (leakage, clockTreeDynamic, osPower float64) {
	core := railIndex(RailCore)
	leakage = m.r1Floor[core]
	clockTreeDynamic = m.r2Floor[core] - m.r1Floor[core]
	osPower = m.runFloor[core] - m.r2Floor[core]
	return leakage, clockTreeDynamic, osPower
}

// DDRMemDecomposition reports the DDR bank idle decomposition: leakage (R1)
// and the self-refresh + OS housekeeping remainder, in milliwatts.
func (m *Model) DDRMemDecomposition() (leakage, refreshAndOS float64) {
	mem := railIndex(RailDDRMem)
	leakage = m.r1Floor[mem]
	refreshAndOS = m.runFloor[mem] - leakage
	return leakage, refreshAndOS
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func nonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
