package power

import (
	"math"
	"testing"
	"testing/quick"
)

// tableVI holds the paper's Table VI in milliwatts, per rail per workload.
var tableVI = map[string]map[Rail]float64{
	"Idle": {
		RailCore: 3075, RailDDRSoC: 139, RailIO: 20, RailPLL: 1,
		RailPCIeVP: 521, RailPCIeVPH: 555, RailDDRMem: 404,
		RailDDRPLL: 28, RailDDRVpp: 67,
	},
	"HPL": {
		RailCore: 4097, RailDDRSoC: 177, RailIO: 20, RailPLL: 1,
		RailPCIeVP: 527, RailPCIeVPH: 554, RailDDRMem: 440,
		RailDDRPLL: 28, RailDDRVpp: 90,
	},
	"STREAM.L2": {
		RailCore: 3714, RailDDRSoC: 170, RailIO: 20, RailPLL: 1,
		RailPCIeVP: 524, RailPCIeVPH: 554, RailDDRMem: 401,
		RailDDRPLL: 28, RailDDRVpp: 73,
	},
	"STREAM.DDR": {
		RailCore: 3287, RailDDRSoC: 232, RailIO: 20, RailPLL: 1,
		RailPCIeVP: 522, RailPCIeVPH: 555, RailDDRMem: 592,
		RailDDRPLL: 28, RailDDRVpp: 98,
	},
	"QE": {
		RailCore: 3825, RailDDRSoC: 176, RailIO: 20, RailPLL: 1,
		RailPCIeVP: 530, RailPCIeVPH: 561, RailDDRMem: 434,
		RailDDRPLL: 28, RailDDRVpp: 95,
	},
}

// tableVITotals holds the paper's per-workload totals in milliwatts.
var tableVITotals = map[string]float64{
	"Idle": 4810, "HPL": 5935, "STREAM.L2": 5486, "STREAM.DDR": 5336, "QE": 5670,
}

var workloadActivity = map[string]Activity{
	"Idle": ActivityIdle, "HPL": ActivityHPL, "STREAM.L2": ActivityStreamL2,
	"STREAM.DDR": ActivityStreamDDR, "QE": ActivityQE,
}

func TestTableVIRails(t *testing.T) {
	m := Calibration()
	for workload, rails := range tableVI {
		act := workloadActivity[workload]
		for rail, want := range rails {
			got := m.RailMilliwatts(rail, PhaseRun, act)
			tol := math.Max(0.12*want, 16)
			if math.Abs(got-want) > tol {
				t.Errorf("%s/%s = %.1f mW, want %.0f (+-%.0f)", workload, rail, got, want, tol)
			}
		}
	}
}

func TestTableVITotals(t *testing.T) {
	m := Calibration()
	for workload, want := range tableVITotals {
		got := m.TotalMilliwatts(PhaseRun, workloadActivity[workload])
		if math.Abs(got-want)/want > 0.005 {
			t.Errorf("%s total = %.1f mW, want %.0f (+-0.5%%)", workload, got, want)
		}
	}
}

func TestIdleExactlyTableVI(t *testing.T) {
	// The idle column is the calibrated floor and must match exactly.
	m := Calibration()
	for rail, want := range tableVI["Idle"] {
		if got := m.RailMilliwatts(rail, PhaseRun, ActivityIdle); got != want {
			t.Errorf("idle %s = %v, want %v", rail, got, want)
		}
	}
	if got := m.TotalMilliwatts(PhaseRun, ActivityIdle); got != 4810 {
		t.Errorf("idle total = %v, want 4810", got)
	}
}

func TestBootColumns(t *testing.T) {
	// Table VI Boot R1/R2 columns are floors and must match exactly.
	m := Calibration()
	wantR1 := map[Rail]float64{
		RailCore: 984, RailDDRSoC: 59, RailIO: 5, RailPLL: 0,
		RailPCIeVP: 12, RailPCIeVPH: 1, RailDDRMem: 275,
		RailDDRPLL: 0, RailDDRVpp: 49,
	}
	wantR2 := map[Rail]float64{
		RailCore: 2561, RailDDRSoC: 197, RailIO: 20, RailPLL: 2,
		RailPCIeVP: 231, RailPCIeVPH: 395, RailDDRMem: 467,
		RailDDRPLL: 29, RailDDRVpp: 122,
	}
	for rail, want := range wantR1 {
		if got := m.RailMilliwatts(rail, PhaseR1, ActivityIdle); got != want {
			t.Errorf("R1 %s = %v, want %v", rail, got, want)
		}
	}
	for rail, want := range wantR2 {
		if got := m.RailMilliwatts(rail, PhaseR2, ActivityHPL); got != want {
			t.Errorf("R2 %s = %v, want %v (activity must not affect boot floors)", rail, got, want)
		}
	}
	if got := m.TotalMilliwatts(PhaseR1, ActivityIdle); got != 1385 {
		t.Errorf("R1 total = %v, want 1385", got)
	}
	if got := m.TotalMilliwatts(PhaseR2, ActivityIdle); got != 4024 {
		t.Errorf("R2 total = %v, want 4024", got)
	}
}

// TestBootTableEndpoints: the boot table reads the model's floors in R1,
// in R2 before the ramp and at the ramp's end (the idle floor), and
// nothing outside the boot phases or for an unknown rail.
func TestBootTableEndpoints(t *testing.T) {
	m := Calibration()
	b := m.BootTable()
	for _, c := range []struct {
		phase Phase
		ramp  float64
		want  Phase
	}{{PhaseR1, 0, PhaseR1}, {PhaseR1, 0.5, PhaseR1}, {PhaseR2, 0, PhaseR2}, {PhaseR2, 1, PhaseRun}} {
		for _, r := range Rails {
			if got, want := b.RailMilliwatts(r, c.phase, c.ramp), m.RailMilliwatts(r, c.want, ActivityIdle); got != want {
				t.Errorf("%v ramp %v %s = %v, want %v", c.phase, c.ramp, r, got, want)
			}
		}
		if c.ramp == 0 {
			if got, want := b.TotalMilliwatts(c.phase, 0), m.TotalMilliwatts(c.phase, ActivityIdle); got != want {
				t.Errorf("%v total = %v, want %v", c.phase, got, want)
			}
		}
	}
	for _, phase := range []Phase{PhaseOff, PhaseRun} {
		if got := b.TotalMilliwatts(phase, 0.5); got != 0 {
			t.Errorf("%v total = %v, want 0", phase, got)
		}
	}
	if got := b.RailMilliwatts("vdd_gpu", PhaseR2, 0.5); got != 0 {
		t.Errorf("unknown rail = %v, want 0", got)
	}
}

func TestPhaseOffIsZero(t *testing.T) {
	m := Calibration()
	if got := m.TotalMilliwatts(PhaseOff, ActivityHPL); got != 0 {
		t.Errorf("off total = %v, want 0", got)
	}
}

func TestCoreDecomposition(t *testing.T) {
	// Section V-B: leakage 0.984 W (32 % of idle core), dynamic + clock
	// tree 1.577 W (51 %), OS 0.514 W (17 %).
	m := Calibration()
	leak, clk, osp := m.CoreDecomposition()
	if leak != 984 {
		t.Errorf("leakage = %v mW, want 984", leak)
	}
	if clk != 1577 {
		t.Errorf("clock tree + dynamic = %v mW, want 1577", clk)
	}
	if osp != 514 {
		t.Errorf("OS power = %v mW, want 514", osp)
	}
	idleCore := m.RailMilliwatts(RailCore, PhaseRun, ActivityIdle)
	if frac := leak / idleCore; math.Abs(frac-0.32) > 0.01 {
		t.Errorf("leakage fraction = %.3f, want ~0.32", frac)
	}
	if frac := clk / idleCore; math.Abs(frac-0.51) > 0.01 {
		t.Errorf("clock-tree fraction = %.3f, want ~0.51", frac)
	}
	if frac := osp / idleCore; math.Abs(frac-0.17) > 0.01 {
		t.Errorf("OS fraction = %.3f, want ~0.17", frac)
	}
}

func TestDDRMemDecomposition(t *testing.T) {
	// Section V-B: DDR bank leakage 0.275 W is 68 % of its idle power.
	m := Calibration()
	leak, rest := m.DDRMemDecomposition()
	if leak != 275 {
		t.Errorf("DDR leakage = %v mW, want 275", leak)
	}
	idle := m.RailMilliwatts(RailDDRMem, PhaseRun, ActivityIdle)
	if frac := leak / idle; math.Abs(frac-0.68) > 0.01 {
		t.Errorf("DDR leakage fraction = %.3f, want ~0.68", frac)
	}
	if rest != idle-leak {
		t.Errorf("refresh+OS remainder = %v, want %v", rest, idle-leak)
	}
}

func TestIdleShares(t *testing.T) {
	// Abstract: idle is 4.81 W with 64 % core, 13 % DDR, 23 % PCI.
	m := Calibration()
	total := m.TotalMilliwatts(PhaseRun, ActivityIdle)
	core := m.RailMilliwatts(RailCore, PhaseRun, ActivityIdle) / total
	ddr := (m.RailMilliwatts(RailDDRSoC, PhaseRun, ActivityIdle) +
		m.RailMilliwatts(RailDDRMem, PhaseRun, ActivityIdle) +
		m.RailMilliwatts(RailDDRPLL, PhaseRun, ActivityIdle) +
		m.RailMilliwatts(RailDDRVpp, PhaseRun, ActivityIdle)) / total
	pci := (m.RailMilliwatts(RailPCIeVP, PhaseRun, ActivityIdle) +
		m.RailMilliwatts(RailPCIeVPH, PhaseRun, ActivityIdle)) / total
	if math.Abs(core-0.64) > 0.01 {
		t.Errorf("core share = %.3f, want ~0.64", core)
	}
	if math.Abs(ddr-0.13) > 0.015 {
		t.Errorf("DDR share = %.3f, want ~0.13", ddr)
	}
	if math.Abs(pci-0.23) > 0.015 {
		t.Errorf("PCI share = %.3f, want ~0.23", pci)
	}
}

func TestHPLShares(t *testing.T) {
	// Abstract: under HPL 5.935 W total with 69 % core, 14 % DDR, 18 % PCI.
	m := Calibration()
	total := m.TotalMilliwatts(PhaseRun, ActivityHPL)
	core := m.RailMilliwatts(RailCore, PhaseRun, ActivityHPL) / total
	if math.Abs(core-0.69) > 0.01 {
		t.Errorf("HPL core share = %.3f, want ~0.69", core)
	}
}

func TestActivityMonotonicityProperty(t *testing.T) {
	// More activity never reduces any rail's power.
	m := Calibration()
	prop := func(a, b, c, d, e uint8) bool {
		act := Activity{
			CoreActivity: float64(a) / 255,
			DDRReadGBs:   float64(b) / 64,
			DDRWriteGBs:  float64(c) / 64,
			L2GBs:        float64(d) / 16,
			PCIeActivity: float64(e) / 255,
		}
		bigger := act
		bigger.CoreActivity = math.Min(1, act.CoreActivity+0.1)
		bigger.DDRReadGBs += 0.5
		bigger.DDRWriteGBs += 0.5
		bigger.L2GBs += 1
		for _, r := range Rails {
			if m.RailMilliwatts(r, PhaseRun, bigger) < m.RailMilliwatts(r, PhaseRun, act) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeActivityClamped(t *testing.T) {
	m := Calibration()
	neg := Activity{CoreActivity: -1, DDRReadGBs: -5, DDRWriteGBs: -5, L2GBs: -5, PCIeActivity: -1}
	for _, r := range Rails {
		if got, idle := m.RailMilliwatts(r, PhaseRun, neg), m.RailMilliwatts(r, PhaseRun, ActivityIdle); got != idle {
			t.Errorf("%s with negative activity = %v, want idle %v", r, got, idle)
		}
	}
}

func TestOverdrivenCoreActivityClamped(t *testing.T) {
	m := Calibration()
	over := Activity{CoreActivity: 5}
	capped := Activity{CoreActivity: 1}
	if m.RailMilliwatts(RailCore, PhaseRun, over) != m.RailMilliwatts(RailCore, PhaseRun, capped) {
		t.Error("core activity above 1 must clamp")
	}
}

func TestRailMilliwattsScaled(t *testing.T) {
	m := Calibration()
	full := m.RailMilliwatts(RailCore, PhaseRun, ActivityHPL)
	if got := m.RailMilliwattsScaled(RailCore, PhaseRun, ActivityHPL, 1); got != full {
		t.Errorf("scale 1 = %v, want full %v", got, full)
	}
	// At scale 0 only the R1 leakage floor remains.
	if got := m.RailMilliwattsScaled(RailCore, PhaseRun, ActivityHPL, 0); got != 984 {
		t.Errorf("scale 0 = %v, want leakage 984", got)
	}
	half := m.RailMilliwattsScaled(RailCore, PhaseRun, ActivityHPL, 0.5)
	if want := 984 + (full-984)*0.5; math.Abs(half-want) > 1e-9 {
		t.Errorf("scale 0.5 = %v, want %v", half, want)
	}
	// Out-of-range scales clamp.
	if m.RailMilliwattsScaled(RailCore, PhaseRun, ActivityHPL, -3) != 984 {
		t.Error("negative scale not clamped")
	}
	if m.RailMilliwattsScaled(RailCore, PhaseRun, ActivityHPL, 9) != full {
		t.Error("overdriven scale not clamped")
	}
	// Boot phases ignore the scale.
	if got := m.RailMilliwattsScaled(RailCore, PhaseR1, ActivityIdle, 0.5); got != 984 {
		t.Errorf("R1 scaled = %v", got)
	}
	if got := m.RailMilliwattsScaled(RailCore, PhaseR2, ActivityIdle, 0.5); got != 2561 {
		t.Errorf("R2 scaled = %v", got)
	}
}

func TestScaledMonotoneInScaleProperty(t *testing.T) {
	m := Calibration()
	prop := func(sRaw uint8) bool {
		s := float64(sRaw) / 255
		for _, r := range Rails {
			lo := m.RailMilliwattsScaled(r, PhaseRun, ActivityHPL, s)
			hi := m.RailMilliwattsScaled(r, PhaseRun, ActivityHPL, math.Min(1, s+0.1))
			if hi < lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownMatchesTotal(t *testing.T) {
	m := Calibration()
	for workload, act := range workloadActivity {
		sum := 0.0
		for _, v := range m.Breakdown(PhaseRun, act) {
			sum += v
		}
		if total := m.TotalMilliwatts(PhaseRun, act); math.Abs(sum-total) > 1e-9 {
			t.Errorf("%s: breakdown sum %v != total %v", workload, sum, total)
		}
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{PhaseOff: "off", PhaseR1: "R1", PhaseR2: "R2", PhaseRun: "R3"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if Phase(42).String() != "Phase(42)" {
		t.Error("unknown phase string")
	}
}
