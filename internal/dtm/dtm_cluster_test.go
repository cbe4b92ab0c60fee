package dtm

import (
	"math"
	"testing"

	"montecimone/internal/cluster"
	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

// hazardCluster boots a full 8-node cluster in the original enclosure and
// puts sustained HPL on every node — the Fig. 6 incident, with node 7 on
// the obstructed slot.
func hazardCluster(t *testing.T, lockStep bool) (*sim.Engine, *cluster.Cluster, *node.Node) {
	t.Helper()
	e := sim.NewEngine()
	c, err := cluster.New(e, cluster.Config{LockStep: lockStep})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BootAndSettle(1); err != nil {
		t.Fatal(err)
	}
	nd := c.Node(6) // mc07
	if err := c.RunWorkloadOn(c.AllNodes(), "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	return e, c, nd
}

// TestGovernorHoldsNode7BelowCapOnCluster: with the governor active on
// the obstructed slot, sustained full-machine HPL under demand-driven
// integration stays below the cap and the node survives.
func TestGovernorHoldsNode7BelowCapOnCluster(t *testing.T) {
	e, c, nd := hazardCluster(t, false)
	defer c.Stop()
	g, err := New(nd)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(e); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if err := e.RunUntil(e.Now() + 7200); err != nil {
		t.Fatal(err)
	}
	if nd.State() != node.StateRunning {
		t.Fatalf("mc07 state = %s under governor", nd.State())
	}
	if temp := nd.Temperature(thermal.SensorCPU); temp > 96.5 {
		t.Errorf("mc07 at %.1f degC exceeded the 95 degC cap band", temp)
	}
	if g.MeanScale() >= 1 || g.ThrottledSeconds() <= 0 {
		t.Errorf("governor never throttled on the hazard slot (mean %.2f, %v s)",
			g.MeanScale(), g.ThrottledSeconds())
	}
}

// TestGovernorDisabledTripMatchesLockStep: with the governor off, the
// demand-driven run must integrate the node-7 trip and halt at the same
// virtual time as the lock-step baseline — the watchdog's refinement near
// the trip band is exactly what makes the lazy integrator event-accurate.
func TestGovernorDisabledTripMatchesLockStep(t *testing.T) {
	type result struct{ haltAt, callbackAt float64 }
	run := func(lockStep bool) result {
		e, c, nd := hazardCluster(t, lockStep)
		defer c.Stop()
		cb := -1.0
		c.OnNodeHalt(func(i int) {
			if i == 6 && cb < 0 {
				cb = e.Now()
			}
		})
		if err := e.RunUntil(e.Now() + 3600); err != nil {
			t.Fatal(err)
		}
		if nd.State() != node.StateHalted {
			t.Fatalf("lockStep=%v: mc07 did not trip", lockStep)
		}
		return result{haltAt: nd.HaltedAt(), callbackAt: cb}
	}
	lock := run(true)
	lazy := run(false)
	if d := math.Abs(lock.haltAt - lazy.haltAt); d > 1e-6 {
		t.Errorf("trip integrated %v s apart (lock %v, demand %v)", d, lock.haltAt, lazy.haltAt)
	}
	if d := math.Abs(lock.callbackAt - lazy.callbackAt); d > 1e-6 {
		t.Errorf("halt surfaced %v s apart (lock %v, demand %v)", d, lock.callbackAt, lazy.callbackAt)
	}
}

// TestGovernorPowerCapThrottles: the power-cap dimension added for the
// cluster power plane throttles a node whose draw exceeds its cap even
// with ample thermal headroom, and recovers once the cap is lifted.
func TestGovernorPowerCapThrottles(t *testing.T) {
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
	defer g.Stop()
	// HPL draws ~5.9 W on this cool slot; cap it at 5 W.
	g.SetPowerCapW(5)
	if err := engine.RunUntil(engine.Now() + 300); err != nil {
		t.Fatal(err)
	}
	if nd.FrequencyScale() >= 1 {
		t.Fatal("power cap did not throttle")
	}
	if draw := nd.TotalMilliwatts() / 1000; draw > 5.05 {
		t.Errorf("draw %.2f W above the 5 W cap", draw)
	}
	// Lift the cap: the governor recovers to nominal (thermal headroom is
	// ample on the mitigated slot).
	g.SetPowerCapW(0)
	if err := engine.RunUntil(engine.Now() + 300); err != nil {
		t.Fatal(err)
	}
	if nd.FrequencyScale() != 1 {
		t.Errorf("scale %.2f after cap lifted, want 1", nd.FrequencyScale())
	}
}
