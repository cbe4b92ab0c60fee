package dtm

import (
	"testing"

	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

// newNode7 builds the hazard node (slot 7, lid on) on an engine with a
// 0.5 s integration ticker, booted and running HPL.
func newNode7(t *testing.T) (*sim.Engine, *node.Node) {
	t.Helper()
	engine := sim.NewEngine()
	nd, err := node.New(node.Config{ID: 7, Enclosure: thermal.DefaultEnclosure()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ScheduleEvery(0.5, 0.5, "step", func(e *sim.Engine) { nd.Step(e.Now()) }); err != nil {
		t.Fatal(err)
	}
	if err := nd.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	if err := engine.RunUntil(node.R1Duration + node.R2Duration + 1); err != nil {
		t.Fatal(err)
	}
	if err := nd.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	return engine, nd
}

func TestNewValidation(t *testing.T) {
	_, nd := newNode7(t)
	if _, err := New(nil); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := New(nd); err != nil {
		t.Errorf("node rejected: %v", err)
	}
}

func TestWithoutGovernorNode7Trips(t *testing.T) {
	engine, nd := newNode7(t)
	if err := engine.RunUntil(engine.Now() + 3600); err != nil {
		t.Fatal(err)
	}
	if nd.State() != node.StateHalted {
		t.Fatalf("node 7 did not trip without the governor (%.1f degC)",
			nd.Temperature(thermal.SensorCPU))
	}
}

func TestGovernorPreventsTrip(t *testing.T) {
	engine, nd := newNode7(t)
	g, err := New(nd)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(engine); err != nil {
		t.Fatal(err)
	}
	if err := engine.RunUntil(engine.Now() + 7200); err != nil {
		t.Fatal(err)
	}
	if nd.State() != node.StateRunning {
		t.Fatalf("node state = %s under governor", nd.State())
	}
	if temp := nd.Temperature(thermal.SensorCPU); temp > 96.5 {
		t.Errorf("temperature %.1f exceeded the cap", temp)
	}
	if g.MeanScale() >= 1 {
		t.Error("governor never throttled on the hazard slot")
	}
	if g.MeanScale() < node.MinFreqScale {
		t.Errorf("mean scale %v below floor", g.MeanScale())
	}
	if g.ThrottledSeconds() <= 0 {
		t.Error("no throttled time recorded")
	}
}

func TestGovernorIdleOnCoolNode(t *testing.T) {
	// A well-cooled node must not be throttled.
	engine := sim.NewEngine()
	nd, err := node.New(node.Config{ID: 1, Enclosure: thermal.Enclosure{AmbientC: 25, LidOn: false}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ScheduleEvery(0.5, 0.5, "step", func(e *sim.Engine) { nd.Step(e.Now()) }); err != nil {
		t.Fatal(err)
	}
	if err := nd.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	if err := engine.RunUntil(node.R1Duration + node.R2Duration + 1); err != nil {
		t.Fatal(err)
	}
	if err := nd.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	g, err := New(nd)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(engine); err != nil {
		t.Fatal(err)
	}
	if err := engine.RunUntil(engine.Now() + 1800); err != nil {
		t.Fatal(err)
	}
	if nd.FrequencyScale() != 1 {
		t.Errorf("cool node throttled to %v", nd.FrequencyScale())
	}
	if g.ThrottledSeconds() != 0 {
		t.Errorf("throttled %v s on a cool node", g.ThrottledSeconds())
	}
}

func TestStopRestoresNominal(t *testing.T) {
	engine, nd := newNode7(t)
	g, err := New(nd)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(engine); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(engine); err == nil {
		t.Error("double start accepted")
	}
	if err := engine.RunUntil(engine.Now() + 1200); err != nil {
		t.Fatal(err)
	}
	if nd.FrequencyScale() >= 1 {
		t.Fatal("governor did not throttle before Stop")
	}
	g.Stop()
	if nd.FrequencyScale() != 1 {
		t.Error("Stop did not restore the nominal operating point")
	}
}

func TestScalingReducesPowerAndCounters(t *testing.T) {
	_, nd := newNode7(t)
	full := nd.TotalMilliwatts()
	nd.SetFrequencyScale(0.5)
	half := nd.TotalMilliwatts()
	if half >= full {
		t.Errorf("power did not drop with frequency: %v >= %v", half, full)
	}
	// The leakage floor survives: power cannot fall below the R1 total.
	if half < 1385 {
		t.Errorf("scaled power %v below leakage floor", half)
	}
	// Clamping.
	nd.SetFrequencyScale(0.01)
	if nd.FrequencyScale() != node.MinFreqScale {
		t.Errorf("scale = %v, want clamp at %v", nd.FrequencyScale(), node.MinFreqScale)
	}
	nd.SetFrequencyScale(7)
	if nd.FrequencyScale() != 1 {
		t.Errorf("scale = %v, want clamp at 1", nd.FrequencyScale())
	}
}
