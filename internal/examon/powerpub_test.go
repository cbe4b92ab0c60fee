package examon

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

func newPowerRig(t *testing.T) (*sim.Engine, *node.Node, *MemStore) {
	t.Helper()
	e := sim.NewEngine()
	nd, err := node.New(node.Config{ID: 1, Enclosure: thermal.DefaultEnclosure()})
	if err != nil {
		t.Fatal(err)
	}
	broker := NewBroker()
	db, err := NewMemStore().Attach(broker)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewPowerPub(broker, nd, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.Start(e); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pp.Stop)
	return e, nd, db
}

func TestPowerPubValidation(t *testing.T) {
	if _, err := NewPowerPub(nil, nil, "", ""); err == nil {
		t.Error("nil broker/node accepted")
	}
}

// TestPluginRegistrationErrors: a scope tag the broker cannot publish
// fails the plugin constructor, before any tick runs.
func TestPluginRegistrationErrors(t *testing.T) {
	nd, err := node.New(node.Config{ID: 1, Enclosure: thermal.DefaultEnclosure()})
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(*Broker, *node.Node, string, string) (*Plugin, error){
		"pmu_pub": NewPMUPub, "stats_pub": NewStatsPub, "power_pub": NewPowerPub,
	} {
		if p, err := build(NewBroker(), nd, "unibo", "a/b"); err == nil || p != nil {
			t.Errorf("%s with cluster a/b: plugin %v, err %v", name, p, err)
		}
		if p, err := build(NewBroker(), nd, "uni#bo", ""); err == nil || p != nil {
			t.Errorf("%s with org uni#bo: plugin %v, err %v", name, p, err)
		}
	}
}

func TestPowerPubPublishesRailsAndTotal(t *testing.T) {
	e, nd, db := newPowerRig(t)
	if err := nd.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(node.R1Duration + node.R2Duration + 10); err != nil {
		t.Fatal(err)
	}
	// One series per rail plus the total.
	for _, rail := range power.Rails {
		series := db.Query(Filter{Node: "mc01", Plugin: "power_pub", Metric: "power." + string(rail)})
		if len(series) != 1 || len(series[0].Points) == 0 {
			t.Errorf("rail %s not published", rail)
		}
	}
	series := db.Query(Filter{Node: "mc01", Plugin: "power_pub", Metric: PowerTotalMetric})
	if len(series) != 1 {
		t.Fatalf("total series = %v", series)
	}
	pts := series[0].Points
	if len(pts) == 0 {
		t.Fatal("no total samples")
	}
	// Early boot samples sit at the R1 floor (1385 mW), settled OS idle at
	// 4810 mW — power_pub samples in every powered state, unlike the
	// OS-hosted plugins.
	if pts[0].V != 1385 {
		t.Errorf("first sample (R1) = %v mW, want 1385", pts[0].V)
	}
	if last := pts[len(pts)-1].V; last != 4810 {
		t.Errorf("settled sample = %v mW, want 4810 (idle)", last)
	}
}

func TestRESTPowerPlaneEndpoint(t *testing.T) {
	srv, err := NewRESTServer(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AttachPowerPlane(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	type state struct {
		BudgetW float64 `json:"budget_w"`
		DrawW   float64 `json:"draw_w"`
	}
	if err := srv.AttachPowerPlane(func() any { return state{BudgetW: 43, DrawW: 39.5} }); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v2/powerplane", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var got state
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.BudgetW != 43 || got.DrawW != 39.5 {
		t.Errorf("body = %+v", got)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v2/powerplane", nil))
	if rec.Code != 405 {
		t.Errorf("POST status %d, want 405", rec.Code)
	}
}

// TestDrawQueryServesFromRing: the power plane's draw query (From one and
// a half control periods back, To unbounded, over a node's power_pub
// total) is served from the series' raw last points. Every quarter second
// of a run long enough to seal chunks, the query's cursor has no sealed
// chunk to visit and nothing to decode, and it yields the points the
// decoding path yields.
func TestDrawQueryServesFromRing(t *testing.T) {
	e, nd, db := newPowerRig(t)
	if err := nd.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	var v PointsView
	for now := PowerPubPeriod; now <= 3*chunkCap+8; now += 0.25 { // the first sample creates the series
		if err := e.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		f := Filter{Plugin: "power_pub", Metric: PowerTotalMetric, From: now - 1.5}
		snaps := db.snapshot(nil, f, false)
		if len(snaps) != 1 {
			t.Fatalf("t=%v: %d series match the draw query, want 1", now, len(snaps))
		}
		v = snaps[0].pts
		c := v.Cursor(f.From, f.To)
		if c.rest.nsealed != 0 || c.rest.nopen != 0 || c.left != 0 {
			t.Fatalf("t=%v: cursor over %d points would decode %d sealed chunks and %d open points",
				now, v.Len(), c.rest.nsealed, c.rest.nopen)
		}
		want := linearFilter(drain(v.all()), f.From, f.To)
		if got := drain(c); !samePoints(got, want) {
			t.Fatalf("t=%v: ring served %v, decoding yields %v", now, got, want)
		}
		if len(want) == 0 {
			t.Fatalf("t=%v: no point in the draw window", now)
		}
	}
	if v.nsealed < 3 {
		t.Fatalf("the run sealed %d chunks, want at least 3", v.nsealed)
	}
}
