package node

import (
	"math"
	"testing"

	"montecimone/internal/power"
	"montecimone/internal/thermal"
)

func newTestNode(t *testing.T, id int) *Node {
	t.Helper()
	n, err := New(Config{ID: id, Enclosure: thermal.DefaultEnclosure(), HPMPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// bootNode powers on at t=0 and steps until running.
func bootNode(t *testing.T, n *Node) float64 {
	t.Helper()
	if err := n.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for n.State() != StateRunning {
		now += 0.5
		n.Step(now)
		if now > 120 {
			t.Fatal("node did not finish booting")
		}
	}
	return now
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{ID: 0}); err == nil {
		t.Error("zero id accepted")
	}
}

func TestHostname(t *testing.T) {
	n := newTestNode(t, 3)
	if n.Hostname() != "mc03" {
		t.Errorf("hostname = %q, want mc03", n.Hostname())
	}
}

func TestBootSequencePhases(t *testing.T) {
	n := newTestNode(t, 1)
	if n.Phase() != power.PhaseOff {
		t.Fatalf("initial phase = %v, want off", n.Phase())
	}
	if err := n.PowerOn(10); err != nil {
		t.Fatal(err)
	}
	n.Step(12)
	if n.Phase() != power.PhaseR1 {
		t.Errorf("at +2 s phase = %v, want R1", n.Phase())
	}
	n.Step(10 + R1Duration + 1)
	if n.Phase() != power.PhaseR2 {
		t.Errorf("after R1 phase = %v, want R2", n.Phase())
	}
	n.Step(10 + R1Duration + R2Duration + 0.5)
	if n.Phase() != power.PhaseRun {
		t.Errorf("after boot phase = %v, want R3/run", n.Phase())
	}
	if n.State() != StateRunning {
		t.Errorf("state = %v, want running", n.State())
	}
}

func TestDoublePowerOnRejected(t *testing.T) {
	n := newTestNode(t, 1)
	if err := n.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	if err := n.PowerOn(1); err == nil {
		t.Error("double power-on accepted")
	}
}

func TestBootPowerLevels(t *testing.T) {
	// Fig. 4 / Table VI: R1 total 1385 mW, R2 total 4024 mW, idle 4810 mW.
	n := newTestNode(t, 1)
	if err := n.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	n.Step(2)
	if got := n.TotalMilliwatts(); got != 1385 {
		t.Errorf("R1 total = %v, want 1385", got)
	}
	n.Step(R1Duration + 2)
	if got := n.TotalMilliwatts(); got != 4024 {
		t.Errorf("R2 total = %v, want 4024", got)
	}
	// During the OS-boot ramp power climbs towards idle.
	rampMid := R1Duration + R2Duration - RampDuration/2
	n.Step(rampMid)
	mid := n.TotalMilliwatts()
	if mid <= 4024 || mid >= 4810 {
		t.Errorf("ramp power = %v, want between 4024 and 4810", mid)
	}
	n.Step(R1Duration + R2Duration + 1)
	if got := n.TotalMilliwatts(); got != 4810 {
		t.Errorf("idle total = %v, want 4810", got)
	}
}

func TestWorkloadPower(t *testing.T) {
	n := newTestNode(t, 1)
	bootNode(t, n)
	if err := n.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	got := n.TotalMilliwatts()
	if math.Abs(got-5935) > 30 {
		t.Errorf("HPL total = %v, want ~5935", got)
	}
	n.ClearWorkload()
	if got := n.TotalMilliwatts(); got != 4810 {
		t.Errorf("after clear = %v, want 4810", got)
	}
}

func TestWorkloadRequiresRunning(t *testing.T) {
	n := newTestNode(t, 1)
	if err := n.SetWorkload("hpl", power.ActivityHPL, 0); err == nil {
		t.Error("workload accepted on powered-off node")
	}
}

func TestCountersAdvanceOnlyWhenRunning(t *testing.T) {
	n := newTestNode(t, 1)
	if err := n.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	n.Step(3)                         // still in R1
	cycles, err := n.PMU().Read(0, 2) // EventCycle
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 0 {
		t.Errorf("cycles advanced during boot: %d", cycles)
	}
	bootTime := 0.0
	for n.State() != StateRunning {
		bootTime += 1
		n.Step(3 + bootTime)
	}
	n.Step(3 + bootTime + 10)
	cycles, _ = n.PMU().Read(0, 2)
	if cycles == 0 {
		t.Error("cycles did not advance while running")
	}
}

func TestNode7ThermalHalt(t *testing.T) {
	// Node 7 under sustained HPL with the lid on must trip and halt.
	n := newTestNode(t, 7)
	bootNode(t, n)
	if err := n.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	now := 50.0
	for i := 0; i < 7200; i++ {
		now += 0.5
		n.Step(now)
		if n.State() == StateHalted {
			break
		}
	}
	if n.State() != StateHalted {
		t.Fatalf("node 7 did not halt; temp=%.1f", n.Temperature(thermal.SensorCPU))
	}
	if n.Workload() != "" {
		t.Error("halted node still reports a workload")
	}
	if n.Phase() != power.PhaseOff {
		t.Errorf("halted node phase = %v, want off", n.Phase())
	}
	// Power cycle recovers it.
	n.PowerOff()
	if err := n.PowerOn(now + 100); err != nil {
		t.Errorf("power-on after halt: %v", err)
	}
}

func TestStableNodeDoesNotHalt(t *testing.T) {
	n := newTestNode(t, 3) // centre blade, hot but stable at ~71 degC
	bootNode(t, n)
	if err := n.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	now := 50.0
	for i := 0; i < 7200; i++ {
		now += 0.5
		n.Step(now)
	}
	if n.State() != StateRunning {
		t.Fatalf("node 3 state = %v, want running", n.State())
	}
	temp := n.Temperature(thermal.SensorCPU)
	if math.Abs(temp-71) > 3 {
		t.Errorf("node 3 steady HPL temp = %.1f, want ~71", temp)
	}
}

func TestStatsReflectWorkload(t *testing.T) {
	n := newTestNode(t, 1)
	bootNode(t, n)
	if err := n.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	n.SetNetRates(10e6, 5e6)
	now := 40.0
	for i := 0; i < 600; i++ {
		now += 0.5
		n.Step(now)
	}
	st := n.Stats()
	if st.CPUUsr != 46.5 {
		t.Errorf("cpu usr = %v, want 46.5", st.CPUUsr)
	}
	if st.Load1 < 1 || st.Load1 > 4 {
		t.Errorf("load1 = %v, want within (1,4)", st.Load1)
	}
	if st.NetRecv <= 0 || st.NetSend <= 0 {
		t.Error("net counters did not accumulate")
	}
	if st.MemUsed < 13e9 {
		t.Errorf("mem used = %v, want >= workload set", st.MemUsed)
	}
	if st.MemFree < 0 {
		t.Error("negative free memory")
	}
	if st.TempCPU <= st.TempMB {
		t.Error("cpu sensor should exceed mb sensor under load")
	}
}

func TestHwmonPaths(t *testing.T) {
	// Table IV: the three sysfs files map to the three sensors.
	n := newTestNode(t, 1)
	bootNode(t, n)
	for _, path := range []string{HwmonNVMePath, HwmonMBPath, HwmonCPUPath} {
		v, err := n.ReadHwmon(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if v < 20000 || v > 110000 {
			t.Errorf("%s = %d millidegC out of plausible range", path, v)
		}
	}
	if _, err := n.ReadHwmon("/sys/class/hwmon/hwmon2/temp1_input"); err == nil {
		t.Error("unknown hwmon path accepted")
	}
}

func TestHwmonOffNode(t *testing.T) {
	n := newTestNode(t, 1)
	if _, err := n.ReadHwmon(HwmonCPUPath); err == nil {
		t.Error("hwmon read on powered-off node accepted")
	}
}

func TestStepBackwardsIgnored(t *testing.T) {
	n := newTestNode(t, 1)
	bootNode(t, n)
	before := n.Stats().SystemInt
	n.Step(1) // far in the past relative to boot completion
	if n.Stats().SystemInt != before {
		t.Error("backwards step mutated state")
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateOff: "off", StateBooting: "booting",
		StateRunning: "running", StateHalted: "halted",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), str)
		}
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state string")
	}
}
