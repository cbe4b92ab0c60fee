package core

import (
	"math"
	"strings"
	"testing"

	"montecimone/internal/power"
	"montecimone/internal/sched"
)

func TestSystemBootAndClose(t *testing.T) {
	s, err := NewSystem(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(20); err != nil {
		t.Fatal(err)
	}
	if s.DB.SeriesCount() == 0 {
		t.Error("monitoring produced no series after boot")
	}
	rows := s.Scheduler.Sinfo()
	if len(rows) != 2 {
		t.Errorf("sinfo rows = %d", len(rows))
	}
}

func TestSystemNoMonitor(t *testing.T) {
	s, err := NewSystem(Options{Nodes: 1, NoMonitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(20); err != nil {
		t.Fatal(err)
	}
	if s.DB.SeriesCount() != 0 {
		t.Error("monitoring ran despite NoMonitor")
	}
}

func TestTableI(t *testing.T) {
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	if rows[0].Package != "gcc" || rows[0].Version != "10.3.0" {
		t.Errorf("first row = %+v", rows[0])
	}
	if rows[8].Package != "quantum-espresso" || rows[8].Version != "6.8" {
		t.Errorf("last row = %+v", rows[8])
	}
}

func TestTableII(t *testing.T) {
	rows := TableII()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Table II's exact topic shapes for both plugins.
	for i, want := range []string{
		"org/<org>/cluster/<cluster>/node/<hostname>/plugin/pmu_pub/chnl/data/core/<id>/<metric_name>",
		"org/<org>/cluster/<cluster>/node/<hostname>/plugin/dstat_pub/chnl/data/<metric_name>",
	} {
		if rows[i].Topic != want {
			t.Errorf("row %d topic = %q, want %q", i, rows[i].Topic, want)
		}
	}
	for _, r := range rows {
		if r.Payload != "<value>;<timestamp>" {
			t.Errorf("payload format = %q", r.Payload)
		}
	}
}

func TestTableIII(t *testing.T) {
	rows, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 28 {
		t.Fatalf("metrics = %d, want 28 (Table III)", len(rows))
	}
	byName := make(map[string]float64, len(rows))
	for _, r := range rows {
		byName[r.Metric] = r.Value
	}
	if v := byName["temperature.cpu_temp"]; v < 25 || v > 110 {
		t.Errorf("cpu temp = %v", v)
	}
	if v := byName["total_cpu_usage.idl"]; v < 50 {
		t.Errorf("idle cpu = %v on an idle node", v)
	}
	if v := byName["memory_usage.free"]; v <= 0 {
		t.Errorf("free memory = %v", v)
	}
}

func TestTableIV(t *testing.T) {
	rows, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"nvme_temp": "/sys/class/hwmon/hwmon0/temp1_input",
		"mb_temp":   "/sys/class/hwmon/hwmon1/temp1_input",
		"cpu_temp":  "/sys/class/hwmon/hwmon1/temp2_input",
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if want[r.Sensor] != r.SysfsFile {
			t.Errorf("%s -> %s, want %s", r.Sensor, r.SysfsFile, want[r.Sensor])
		}
		if r.MilliC < 20000 || r.MilliC > 110000 {
			t.Errorf("%s reading = %d millidegC", r.Sensor, r.MilliC)
		}
	}
}

func TestTableV(t *testing.T) {
	tbl, err := TableV(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.DDR) != 4 || len(tbl.L2) != 4 {
		t.Fatalf("rows = %d/%d", len(tbl.DDR), len(tbl.L2))
	}
	// Spot-check against Table V.
	if math.Abs(tbl.DDR[0].MeanMBps-1206)/1206 > 0.03 {
		t.Errorf("DDR copy = %.0f, want ~1206", tbl.DDR[0].MeanMBps)
	}
	if math.Abs(tbl.L2[1].MeanMBps-3558)/3558 > 0.03 {
		t.Errorf("L2 scale = %.0f, want ~3558", tbl.L2[1].MeanMBps)
	}
}

// TestTableVIRepeatable: every call sums each column to the same bits.
func TestTableVIRepeatable(t *testing.T) {
	first := TableVI()
	for call := 1; call < 200; call++ {
		for i, col := range TableVI() {
			if got, want := col.TotalMilliwatts, first[i].TotalMilliwatts; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("call %d: %s total = %v, first call gave %v", call, col.Workload, got, want)
			}
		}
	}
}

func TestTableVI(t *testing.T) {
	cols := TableVI()
	if len(cols) != 7 {
		t.Fatalf("columns = %d, want 7", len(cols))
	}
	byName := make(map[string]PowerColumn, len(cols))
	for _, c := range cols {
		byName[c.Workload] = c
	}
	wantTotals := map[string]float64{
		"Idle": 4810, "HPL": 5935, "STREAM.L2": 5486,
		"STREAM.DDR": 5336, "QE": 5670, "Boot R1": 1385, "Boot R2": 4024,
	}
	for name, want := range wantTotals {
		col, ok := byName[name]
		if !ok {
			t.Errorf("missing column %s", name)
			continue
		}
		if math.Abs(col.TotalMilliwatts-want)/want > 0.005 {
			t.Errorf("%s total = %.0f, want %.0f", name, col.TotalMilliwatts, want)
		}
		sum := 0.0
		for _, pct := range col.Percent {
			sum += pct
		}
		if math.Abs(sum-100) > 0.01 {
			t.Errorf("%s percentages sum to %v", name, sum)
		}
	}
	// Core share of idle = 64 % (abstract).
	idle := byName["Idle"]
	if math.Abs(idle.Percent[power.RailCore]-64) > 1 {
		t.Errorf("idle core share = %.1f%%, want ~64%%", idle.Percent[power.RailCore])
	}
}

func TestDecomposition(t *testing.T) {
	d := Decomposition()
	if d.CoreLeakage != 984 || d.CoreClockTree != 1577 || d.CoreOS != 514 {
		t.Errorf("core decomposition = %v/%v/%v", d.CoreLeakage, d.CoreClockTree, d.CoreOS)
	}
	if math.Abs(d.CoreLeakageFrac-0.32) > 0.01 || math.Abs(d.CoreClockTreeFrac-0.51) > 0.01 ||
		math.Abs(d.CoreOSFrac-0.17) > 0.01 {
		t.Errorf("fractions = %v/%v/%v, want 0.32/0.51/0.17",
			d.CoreLeakageFrac, d.CoreClockTreeFrac, d.CoreOSFrac)
	}
	if math.Abs(d.DDRLeakageFrac-0.68) > 0.01 {
		t.Errorf("DDR leakage fraction = %v, want 0.68", d.DDRLeakageFrac)
	}
	if d.IdleTotalMilliwatts != 4810 {
		t.Errorf("idle total = %v", d.IdleTotalMilliwatts)
	}
}

func TestFig2(t *testing.T) {
	points, err := Fig2(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("points = %d", len(points))
	}
	// Paper labels: 1.86 ... 12.65 GFLOP/s.
	want := []float64{1.86, 3.50, 5.13, 6.63, 7.86, 9.54, 10.81, 12.65}
	for i, pt := range points {
		if pt.Nodes != i+1 {
			t.Errorf("point %d nodes = %d", i, pt.Nodes)
		}
		if math.Abs(pt.MeanGFlops-want[i])/want[i] > 0.09 {
			t.Errorf("nodes=%d mean = %.2f, want %.2f +-9%%", pt.Nodes, pt.MeanGFlops, want[i])
		}
		if pt.StdGFlops <= 0 {
			t.Errorf("nodes=%d zero std", pt.Nodes)
		}
	}
	if points[0].Speedup != 1.0 {
		t.Errorf("single-node speedup = %v", points[0].Speedup)
	}
	// 8-node: ~85 % of linear scaling.
	if math.Abs(points[7].LinearFraction-0.85) > 0.05 {
		t.Errorf("8-node linear fraction = %.3f, want ~0.85", points[7].LinearFraction)
	}
}

func TestFig3PowerTraces(t *testing.T) {
	traces, err := Fig3("hpl", 1)
	if err != nil {
		t.Fatal(err)
	}
	core := traces.Traces.Lookup("core")
	if core == nil {
		t.Fatal("missing core trace")
	}
	// 8 s at 1 ms windows.
	if core.Len() < 7800 || core.Len() > 8200 {
		t.Errorf("trace windows = %d, want ~8000", core.Len())
	}
	// Mean near the Table VI HPL core power with noise.
	if math.Abs(core.Mean()-4097) > 50 {
		t.Errorf("core mean = %.0f, want ~4097", core.Mean())
	}
	if core.Std() == 0 {
		t.Error("trace has no measurement noise")
	}
	// Unknown workload rejected.
	if _, err := Fig3("doom", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFig4BootTrace(t *testing.T) {
	bt, err := Fig4(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bt.R1Mean-984) > 25 {
		t.Errorf("R1 core mean = %.0f, want ~984", bt.R1Mean)
	}
	if math.Abs(bt.R2Mean-2561) > 40 {
		t.Errorf("R2 core mean = %.0f, want ~2561", bt.R2Mean)
	}
	if math.Abs(bt.R3Mean-3075) > 40 {
		t.Errorf("R3 core mean = %.0f, want ~3075 (idle)", bt.R3Mean)
	}
	if bt.PLLActivationAt <= bt.PowerOnAt {
		t.Error("PLL activation before power-on")
	}
	// The PLL rail steps from 0 to 2 mW at activation.
	pll := bt.Traces.Lookup("pll")
	pre, ok1 := pll.MeanBetween(bt.PowerOnAt+0.5, bt.PLLActivationAt-0.5)
	post, ok2 := pll.MeanBetween(bt.PLLActivationAt+0.5, bt.PLLActivationAt+5)
	if !ok1 || !ok2 {
		t.Fatal("pll trace windows empty")
	}
	if post <= pre {
		t.Errorf("pll did not step up at activation: %v -> %v", pre, post)
	}
}

func TestFig5Heatmaps(t *testing.T) {
	hm, err := Fig5(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hm.InstructionsPerSec.Nodes) != 8 {
		t.Fatalf("heatmap rows = %d", len(hm.InstructionsPerSec.Nodes))
	}
	// Instruction rate must alternate: max well above row mean (compute
	// bands vs communication bands).
	maxV := hm.InstructionsPerSec.MaxValue()
	if maxV < 4e9*0.465*2*0.9 { // ~4 cores x 2 slots x 1.2 GHz x 0.465, rough floor
		t.Errorf("peak instruction rate = %v too low", maxV)
	}
	mean := hm.InstructionsPerSec.RowMean(0)
	if !(mean < maxV*0.95) {
		t.Errorf("no communication dips visible: mean %v vs max %v", mean, maxV)
	}
	if hm.NetworkBytesPerSec.MaxValue() <= 0 {
		t.Error("no network traffic in heatmap")
	}
	if hm.MemoryUsedBytes.MaxValue() < hplMemBytes {
		t.Errorf("memory heatmap max = %v below HPL set", hm.MemoryUsedBytes.MaxValue())
	}
}

func TestFig6ThermalRunaway(t *testing.T) {
	rep, err := Fig6(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrippedNode != "mc07" {
		t.Errorf("tripped node = %s, want mc07", rep.TrippedNode)
	}
	if rep.TripAt <= 0 {
		t.Errorf("trip at %v", rep.TripAt)
	}
	if math.Abs(rep.PeakBeforeMitigation-71) > 3 {
		t.Errorf("pre-mitigation hottest = %.1f, want ~71", rep.PeakBeforeMitigation)
	}
	if math.Abs(rep.PeakAfterMitigation-39) > 2.5 {
		t.Errorf("post-mitigation hottest = %.1f, want ~39", rep.PeakAfterMitigation)
	}
	trace := rep.Temps.Lookup("mc07")
	if trace == nil || trace.Max() < 100 {
		t.Error("node 7 trace missing its excursion")
	}
}

func TestHPLEfficiencyComparison(t *testing.T) {
	rows, err := HPLEfficiencyComparison()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"Monte Cimone": 0.465, "Marconi100": 0.597, "Armida": 0.6579}
	for _, r := range rows {
		w := want[r.Machine]
		if math.Abs(r.Efficiency-w)/w > 0.03 {
			t.Errorf("%s = %.4f, want %.4f", r.Machine, r.Efficiency, w)
		}
	}
}

func TestStreamEfficiencyComparison(t *testing.T) {
	rows, err := StreamEfficiencyComparison()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"Monte Cimone": 0.155, "Marconi100": 0.482, "Armida": 0.6321}
	for _, r := range rows {
		w := want[r.Machine]
		if math.Abs(r.Efficiency-w)/w > 0.03 {
			t.Errorf("%s = %.4f, want %.4f", r.Machine, r.Efficiency, w)
		}
	}
}

func TestQELax(t *testing.T) {
	rep, err := QELax(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MeanGFlops-1.44) > 0.08 {
		t.Errorf("mean = %.3f GFLOP/s, want ~1.44", rep.MeanGFlops)
	}
	if math.Abs(rep.Efficiency-0.36) > 0.005 {
		t.Errorf("efficiency = %.3f, want 0.36", rep.Efficiency)
	}
	if math.Abs(rep.MeanSeconds-37.4) > 1.2 {
		t.Errorf("duration = %.2f, want ~37.4", rep.MeanSeconds)
	}
}

func TestInfinibandStatus(t *testing.T) {
	rep, err := InfinibandStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recognised || !rep.ModuleLoaded {
		t.Error("HCA not recognised/loaded")
	}
	if rep.PingRTTSeconds <= 0 {
		t.Error("no ping RTT")
	}
	if rep.RDMAWorking {
		t.Error("RDMA unexpectedly working on the paper's stack")
	}
	if !strings.Contains(rep.RDMAError, "incompatibility") {
		t.Errorf("RDMA error = %q", rep.RDMAError)
	}
}

func TestSchedulerIntegrationThermalFailure(t *testing.T) {
	// An 8-node HPL job through the scheduler dies with NODE_FAIL when
	// node 7 trips — the operators' Fig. 6 experience end to end.
	s, err := NewSystem(Options{Nodes: 8, NoMonitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	job, err := s.Scheduler.Submit(sched.JobSpec{
		Name: "hpl-full", User: "ops", Nodes: 8,
		TimeLimit: 7200, Duration: 4000,
		OnStart: func(_ *sched.Job, nodes []int) {
			if err := s.Cluster.RunWorkloadOn(nodes, "hpl", power.ActivityHPL, hplMemBytes); err != nil {
				t.Errorf("workload start: %v", err)
			}
		},
		OnEnd: func(j *sched.Job, _ sched.JobState) {
			s.Cluster.ClearWorkloadOn(j.Nodes())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7200; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
		if st := job.State(); st != sched.StateRunning && st != sched.StatePending {
			break
		}
	}
	if job.State() != sched.StateNodeFail {
		t.Errorf("job state = %s, want NODE_FAIL", job.State())
	}
	// sinfo shows mc07 down.
	for _, row := range s.Scheduler.Sinfo() {
		if row.Host == "mc07" && row.State != sched.NodeDown {
			t.Errorf("mc07 state = %s, want down", row.State)
		}
	}
}
