package cluster

import (
	"math"
	"testing"

	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

// runHazardCampaign boots a full cluster, runs HPL everywhere and returns
// the halt bookkeeping: the hostname, the engine time the halt callback
// fired at, and the node's own integrated trip time.
func runHazardCampaign(t *testing.T, lockStep bool) (host string, callbackAt, haltedAt, mc03Temp float64) {
	t.Helper()
	e := sim.NewEngine()
	c, err := New(e, Config{LockStep: lockStep})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BootAndSettle(1); err != nil {
		t.Fatal(err)
	}
	callbackAt = -1
	c.OnNodeHalt(func(i int) {
		if host == "" {
			host = c.Node(i).Hostname()
			callbackAt = e.Now()
		}
	})
	if err := c.RunWorkloadOn(c.AllNodes(), "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(e.Now() + 3600); err != nil {
		t.Fatal(err)
	}
	return host, callbackAt, c.Node(6).HaltedAt(), c.Node(2).Temperature(thermal.SensorCPU)
}

// TestDemandDrivenMatchesLockStep is the ablation equivalence contract:
// the demand-driven integrator must reproduce the lock-step run's thermal
// story — same tripped node, same halt time on the integration grid, same
// steady temperatures — while doing far less work.
func TestDemandDrivenMatchesLockStep(t *testing.T) {
	lockHost, lockCb, lockHalt, lockTemp := runHazardCampaign(t, true)
	lazyHost, lazyCb, lazyHalt, lazyTemp := runHazardCampaign(t, false)
	if lockHost != "mc07" || lazyHost != "mc07" {
		t.Fatalf("tripped hosts = %q / %q, want mc07", lockHost, lazyHost)
	}
	if d := math.Abs(lockHalt - lazyHalt); d > 1e-6 {
		t.Errorf("integrated trip times differ by %v s (lock %v, demand %v)", d, lockHalt, lazyHalt)
	}
	// The halt callback must fire at the trip instant in both modes: the
	// lock-step ticker discovers it on the crossing tick; the
	// demand-driven watchdog refines to the base step inside the hot
	// band for exactly this reason.
	if d := math.Abs(lockCb - lazyCb); d > 1e-6 {
		t.Errorf("halt callbacks fired %v s apart (lock %v, demand %v)", d, lockCb, lazyCb)
	}
	if d := math.Abs(lockCb - lockHalt); d > 1e-6 {
		t.Errorf("lock-step callback at %v but trip integrated at %v", lockCb, lockHalt)
	}
	if d := math.Abs(lockTemp - lazyTemp); d > 0.01 {
		t.Errorf("mc03 steady temps differ by %v degC (lock %v, demand %v)", d, lockTemp, lazyTemp)
	}
}

// TestDemandDrivenStepReduction asserts the headline physics saving: on
// an idle partition observed at the telemetry rate (2 Hz), the
// demand-driven integrator executes at least 5x fewer model steps than
// the lock-step ablation over a settled window. (In practice the gap is
// orders of magnitude; 5x is the acceptance floor.)
func TestDemandDrivenStepReduction(t *testing.T) {
	window := func(lockStep bool) uint64 {
		e := sim.NewEngine()
		c, err := New(e, Config{Nodes: 16, LockStep: lockStep})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		if err := c.BootAndSettle(1); err != nil {
			t.Fatal(err)
		}
		// 2 Hz per-node observation, the pmu_pub sampling pattern.
		if _, err := e.ScheduleEvery(e.Now()+0.5, 0.5, "obs", func(e *sim.Engine) {
			for i := 0; i < c.Size(); i++ {
				c.Node(i).SyncTo(e.Now())
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.RunUntil(e.Now() + 1600); err != nil { // settle past the thermal taus
			t.Fatal(err)
		}
		before := c.ModelSteps()
		if err := e.RunUntil(e.Now() + 300); err != nil {
			t.Fatal(err)
		}
		return c.ModelSteps() - before
	}
	lock := window(true)
	lazy := window(false)
	if lazy == 0 {
		lazy = 1
	}
	ratio := float64(lock) / float64(lazy)
	t.Logf("window steps: lock-step %d, demand-driven %d (%.0fx)", lock, lazy, ratio)
	if ratio < 5 {
		t.Errorf("demand-driven executed only %.1fx fewer steps, want >= 5x", ratio)
	}
}

// TestBootCompletionNotification: each node pushes its boot completion at
// its own deadline, and BootAndSettle derives its wait from those
// deadlines instead of hard-coded constants — in both modes and with zero
// settle margin.
func TestBootCompletionNotification(t *testing.T) {
	for _, lockStep := range []bool{false, true} {
		e := sim.NewEngine()
		c, err := New(e, Config{Nodes: 4, LockStep: lockStep})
		if err != nil {
			t.Fatal(err)
		}
		booted := map[int]float64{}
		c.OnNodeBoot(func(i int) { booted[i] = e.Now() })
		if err := c.BootAndSettle(0); err != nil {
			t.Fatalf("lockStep=%v: %v", lockStep, err)
		}
		if len(booted) != 4 {
			t.Fatalf("lockStep=%v: %d boot notifications, want 4", lockStep, len(booted))
		}
		for i, at := range booted {
			min := node.R1Duration + node.R2Duration - 1e-6
			if at < min || at > min+node.BaseStep+1e-6 {
				t.Errorf("lockStep=%v: node %d booted at %v, want within one step of %v",
					lockStep, i, at, min)
			}
		}
		c.Stop()
	}
}

// TestStopCancelsWatchdogs: Stop must leave no live integration events in
// either mode.
func TestStopCancelsWatchdogs(t *testing.T) {
	e := sim.NewEngine()
	c, err := New(e, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BootAndSettle(1); err != nil {
		t.Fatal(err)
	}
	// A runaway workload keeps watchdogs armed.
	if err := c.RunWorkloadOn(c.AllNodes(), "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if got := e.Pending(); got != 0 {
		t.Errorf("%d live events after Stop", got)
	}
}
