package powerplane

import (
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
	db := examon.NewTSDB()
	if _, err := db.Attach(broker); err != nil {
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
	db := examon.NewTSDB()
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
	if _, err := New(e, c, db, br, Config{BudgetW: 10, Period: -1}); err == nil {
		t.Error("negative period accepted")
	}
	if _, err := New(e, c, db, br, Config{BudgetW: 10, Weights: map[string]float64{"mc01": -1}}); err == nil {
		t.Error("negative weight accepted")
	}
}

// TestCapsEnforceBudget: with every node under HPL and a budget below the
// aggregate draw, the distributed caps bring the measured total down to
// the budget and the state telemetry reflects it.
func TestCapsEnforceBudget(t *testing.T) {
	const budget = 44.0 // 8 HPL nodes want ~47.5 W on the rails
	e, c, g := rig(t, Config{BudgetW: budget})
	if err := c.RunWorkloadOn(c.Hostnames(), "hpl", power.ActivityHPL, 13e9); err != nil {
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
	c.ClearWorkloadOn(c.Hostnames())
	if err := e.RunUntil(e.Now() + 300); err != nil {
		t.Fatal(err)
	}
	if got := g.Snapshot().ThrottledNodes; got != 0 {
		t.Errorf("%d nodes still throttled after the load cleared", got)
	}
}

// TestWeightedShares: a node with a larger weight keeps a larger cap when
// everyone is pressed against the budget.
func TestWeightedShares(t *testing.T) {
	e, c, g := rig(t, Config{
		BudgetW: 42,
		Weights: map[string]float64{"mc01": 3}, // everyone else weight 1
	})
	if err := c.RunWorkloadOn(c.Hostnames(), "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(e.Now() + 60); err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	if snap.NodeCapsW["mc01"] <= snap.NodeCapsW["mc02"] {
		t.Errorf("weighted node cap %.2f not above peer cap %.2f",
			snap.NodeCapsW["mc01"], snap.NodeCapsW["mc02"])
	}
}

// TestAdvisorContract: predictions come from the rail model, headroom
// nets out reservations, and reservations expire.
func TestAdvisorContract(t *testing.T) {
	e, _, g := rig(t, Config{BudgetW: 50})
	if err := e.RunUntil(e.Now() + 5); err != nil {
		t.Fatal(err)
	}
	pm := power.NewModel()
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
	if err := e.RunUntil(e.Now() + 3*g.cfg.Period); err != nil {
		t.Fatal(err)
	}
	if g.Snapshot().ReservedW != 0 {
		t.Errorf("reservation did not expire: %+v", g.Snapshot())
	}
	if temp := g.NodeTempC("mc01"); temp < 20 || temp > 110 {
		t.Errorf("NodeTempC(mc01) = %v", temp)
	}
	if !math.IsInf(g.NodeTempC("nope"), 1) {
		t.Error("unknown host temperature not +Inf")
	}
}

// TestPlaneTelemetryPublished: the plane's state lands in the TSDB as
// typed samples.
func TestPlaneTelemetryPublished(t *testing.T) {
	e, _, g := rig(t, Config{BudgetW: 50})
	if err := e.RunUntil(e.Now() + 10); err != nil {
		t.Fatal(err)
	}
	db := g.store.(*examon.TSDB)
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
