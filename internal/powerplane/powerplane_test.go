package powerplane

import (
	"fmt"
	"math"
	"testing"

	"montecimone/internal/cluster"
	"montecimone/internal/examon"
	"montecimone/internal/power"
	"montecimone/internal/sim"
)

// rig boots an 8-node mitigated cluster with power telemetry and a plane.
func rig(t *testing.T, cfg Config) (*sim.Engine, *cluster.Cluster, *Governor) {
	t.Helper()
	e := sim.NewEngine()
	c, err := cluster.New(e, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	broker := examon.NewBroker()
	db, err := examon.NewMemStore().Attach(broker)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BootAndSettle(1); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyAirflowMitigation(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		pp, err := examon.NewPowerPub(broker, c.Node(i), "", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := pp.Start(e); err != nil {
			t.Fatal(err)
		}
	}
	g, err := New(e, c, db, broker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Stop(); c.Stop() })
	return e, c, g
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	c, err := cluster.New(e, cluster.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := examon.NewMemStore()
	br := examon.NewBroker()
	if _, err := New(nil, c, db, br, Config{BudgetW: 10}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(e, c, db, br, Config{}); err == nil {
		t.Error("zero budget accepted")
	}
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := New(e, c, db, br, Config{BudgetW: w}); err == nil {
			t.Errorf("budget %v accepted", w)
		}
	}
	// The state samples' tags are registered up front, so a scope tag the
	// broker cannot publish fails here rather than inside the control loop.
	if _, err := New(e, c, db, br, Config{BudgetW: 10, Cluster: "a+b"}); err == nil {
		t.Error("cluster tag a+b accepted")
	}
	// A budget step follows New's rule and leaves a refused budget unset.
	g, err := New(e, c, db, br, Config{BudgetW: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0, math.NaN(), math.Inf(1)} {
		if err := g.SetBudgetW(w); err == nil {
			t.Errorf("budget step to %v accepted", w)
		}
	}
	if g.BudgetW() != 10 {
		t.Errorf("budget %v W after refused steps, want 10", g.BudgetW())
	}
}

// TestCapsEnforceBudget: with every node under HPL and a budget below the
// aggregate draw, the distributed caps bring the measured total down to
// the budget and the state telemetry reflects it.
func TestCapsEnforceBudget(t *testing.T) {
	const budget = 44.0 // 8 HPL nodes want ~47.5 W on the rails
	e, c, g := rig(t, Config{BudgetW: budget})
	if err := c.RunWorkloadOn(c.AllNodes(), "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(e.Now() + 120); err != nil {
		t.Fatal(err)
	}
	if g.DrawW() > budget+0.1 {
		t.Errorf("settled draw %.2f W above the %.0f W budget", g.DrawW(), budget)
	}
	if g.ThrottledNodes() == 0 {
		t.Error("no node throttled despite the over-budget demand")
	}
	snap := g.Snapshot()
	if snap.BudgetW != budget || snap.DrawW != g.DrawW() {
		t.Errorf("snapshot inconsistent: %+v", snap)
	}
	capTotal := 0.0
	for _, w := range snap.NodeCapsW {
		capTotal += w
	}
	if capTotal > budget+0.1 {
		t.Errorf("distributed caps sum to %.2f W above the budget", capTotal)
	}
	// Clearing the load recovers the nodes to nominal.
	c.ClearWorkloadOn(c.AllNodes())
	if err := e.RunUntil(e.Now() + 300); err != nil {
		t.Fatal(err)
	}
	if got := g.Snapshot().ThrottledNodes; got != 0 {
		t.Errorf("%d nodes still throttled after the load cleared", got)
	}
}

// TestGovernorsActInNodeOrder: the per-node dtm governors tick at the
// same instants, and they must act in node order, not in an order that
// changes from run to run. A budget below idle draw puts every node over
// its cap, so at the second control tick every governor steps its node
// down; a lock-step cluster leaves each node's input-change hook free to
// record the order.
func TestGovernorsActInNodeOrder(t *testing.T) {
	order := func() []string {
		e := sim.NewEngine()
		c, err := cluster.New(e, cluster.Config{LockStep: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		broker := examon.NewBroker()
		db, err := examon.NewMemStore().Attach(broker)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.BootAndSettle(1); err != nil {
			t.Fatal(err)
		}
		if err := c.RunWorkloadOn(c.AllNodes(), "hpl", power.ActivityHPL, 13e9); err != nil {
			t.Fatal(err)
		}
		g, err := New(e, c, db, broker, Config{BudgetW: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
		defer g.Stop()
		var got []string
		for i := 0; i < c.Size(); i++ {
			host := c.Node(i).Hostname()
			c.Node(i).OnInputChange(func() { got = append(got, host) })
		}
		if err := e.RunUntil(e.Now() + 2*period); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := []string{"mc01", "mc02", "mc03", "mc04", "mc05", "mc06", "mc07", "mc08"}
	for run := 0; run < 20; run++ {
		if got := order(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: governors acted in order %v, want %v", run, got, want)
		}
	}
}

// TestAdvisorContract: predictions come from the rail model, headroom
// nets out reservations, and reservations expire.
func TestAdvisorContract(t *testing.T) {
	e, _, g := rig(t, Config{BudgetW: 50})
	if err := e.RunUntil(e.Now() + 5); err != nil {
		t.Fatal(err)
	}
	pm := power.Calibration()
	wantPerNode := (pm.TotalMilliwatts(power.PhaseRun, power.ActivityHPL) -
		pm.TotalMilliwatts(power.PhaseRun, power.ActivityIdle)) / 1000
	if got := g.PredictedJobWatts(power.ActivityHPL, 4); math.Abs(got-4*wantPerNode) > 1e-9 {
		t.Errorf("PredictedJobWatts(hpl, 4) = %v, want %v", got, 4*wantPerNode)
	}
	if got := g.PredictedJobWatts(power.Activity{}, 3); got != 0 {
		t.Errorf("idle profile predicted %v, want 0", got)
	}
	before := g.HeadroomWatts()
	g.NotePlacement(power.ActivityHPL, 2)
	after := g.HeadroomWatts()
	if d := before - after; math.Abs(d-2*wantPerNode) > 1e-9 {
		t.Errorf("reservation shaved %v W off headroom, want %v", d, 2*wantPerNode)
	}
	// Reservations expire after the measurement window catches up.
	if err := e.RunUntil(e.Now() + 3*period); err != nil {
		t.Fatal(err)
	}
	if g.Snapshot().ReservedW != 0 {
		t.Errorf("reservation did not expire: %+v", g.Snapshot())
	}
	if temp := g.NodeTempC(0); temp < 20 || temp > 110 {
		t.Errorf("NodeTempC(0) = %v", temp)
	}
}

// TestPlaneTelemetryPublished: the plane's state lands in the store as
// typed samples.
func TestPlaneTelemetryPublished(t *testing.T) {
	e, _, g := rig(t, Config{BudgetW: 50})
	if err := e.RunUntil(e.Now() + 10); err != nil {
		t.Fatal(err)
	}
	db := g.store
	for _, metric := range []string{"budget_w", "draw_w", "headroom_w", "throttled_nodes"} {
		series := db.Query(examon.Filter{Node: cluster.MasterHostname, Plugin: "powerplane", Metric: metric})
		if len(series) != 1 || len(series[0].Points) == 0 {
			t.Errorf("metric %s not published", metric)
		}
	}
	caps := db.Query(examon.Filter{Node: "mc03", Plugin: "powerplane", Metric: "cap_w"})
	if len(caps) != 1 || len(caps[0].Points) == 0 {
		t.Error("per-node cap_w not published")
	}
}
