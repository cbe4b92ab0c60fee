package examon

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

// testRig wires one monitored node to a broker and its store on an engine.
type testRig struct {
	engine *sim.Engine
	node   *node.Node
	broker *Broker
	db     *MemStore
	pmu    *Plugin
	stats  *Plugin
}

func newRig(t *testing.T, hpmPatch bool) *testRig {
	t.Helper()
	engine := sim.NewEngine()
	nd, err := node.New(node.Config{ID: 1, Enclosure: thermal.DefaultEnclosure(), HPMPatch: hpmPatch})
	if err != nil {
		t.Fatal(err)
	}
	broker := NewBroker()
	db, err := NewMemStore().Attach(broker)
	if err != nil {
		t.Fatal(err)
	}
	pmu, err := NewPMUPub(broker, nd, "", "")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := NewStatsPub(broker, nd, "", "")
	if err != nil {
		t.Fatal(err)
	}
	// Node stepping ticker.
	if _, err := engine.ScheduleEvery(0.1, 0.1, "step", func(e *sim.Engine) { nd.Step(e.Now()) }); err != nil {
		t.Fatal(err)
	}
	return &testRig{engine: engine, node: nd, broker: broker, db: db, pmu: pmu, stats: stats}
}

// boot powers the node and runs until it is up with plugins started.
func (r *testRig) boot(t *testing.T) {
	t.Helper()
	if err := r.node.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	if err := r.pmu.Start(r.engine); err != nil {
		t.Fatal(err)
	}
	if err := r.stats.Start(r.engine); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.RunUntil(node.R1Duration + node.R2Duration + 1); err != nil {
		t.Fatal(err)
	}
}

func TestPMUPubPublishesFixedCounters(t *testing.T) {
	rig := newRig(t, false)
	rig.boot(t)
	if err := rig.node.SetWorkload("hpl", power.ActivityHPL, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := rig.engine.RunUntil(rig.engine.Now() + 10); err != nil {
		t.Fatal(err)
	}
	series := rig.db.Query(Filter{Plugin: "pmu_pub", Metric: "instret"})
	if len(series) != 4 {
		t.Fatalf("instret series = %d, want 4 (one per core)", len(series))
	}
	for _, s := range series {
		if len(s.Points) < 15 { // ~2 Hz over 10 s
			t.Errorf("core %d has %d points, want ~20", s.Tags.Core, len(s.Points))
		}
		// Counter must be cumulative (non-decreasing).
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].V < s.Points[i-1].V {
				t.Fatalf("core %d counter decreased", s.Tags.Core)
			}
		}
	}
	// Without the U-Boot patch no programmable counters appear.
	if got := rig.db.Query(Filter{Plugin: "pmu_pub", Metric: "l2_miss"}); len(got) != 0 {
		t.Errorf("l2_miss series on stock boot loader: %d", len(got))
	}
}

func TestPMUPubHPMCountersWithBootPatch(t *testing.T) {
	rig := newRig(t, true)
	rig.boot(t)
	if err := rig.node.SetWorkload("stream", power.ActivityStreamDDR, 2e9); err != nil {
		t.Fatal(err)
	}
	if err := rig.engine.RunUntil(rig.engine.Now() + 10); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"l2_miss", "ddr_read", "ddr_write", "branch_miss"} {
		if got := rig.db.Query(Filter{Plugin: "pmu_pub", Metric: metric}); len(got) != 4 {
			t.Errorf("%s series = %d, want 4", metric, len(got))
		}
	}
}

func TestInstructionRateTracksWorkload(t *testing.T) {
	rig := newRig(t, false)
	rig.boot(t)
	idleEnd := rig.engine.Now() + 20
	if err := rig.engine.RunUntil(idleEnd); err != nil {
		t.Fatal(err)
	}
	if err := rig.node.SetWorkload("hpl", power.ActivityHPL, 1e9); err != nil {
		t.Fatal(err)
	}
	loadEnd := idleEnd + 20
	if err := rig.engine.RunUntil(loadEnd); err != nil {
		t.Fatal(err)
	}
	series := rig.db.Query(Filter{Plugin: "pmu_pub", Metric: "instret", Core: intPtr(0)})
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	rate := Rate(series[0])
	idleRate, loadRate := 0.0, 0.0
	var idleN, loadN int
	for _, p := range rate.Points {
		if p.T < idleEnd {
			idleRate += p.V
			idleN++
		} else {
			loadRate += p.V
			loadN++
		}
	}
	if idleN == 0 || loadN == 0 {
		t.Fatal("missing rate points")
	}
	idleRate /= float64(idleN)
	loadRate /= float64(loadN)
	// HPL keeps 46.5 % of the dual-issue slots busy: 1.116e9 instr/s/core.
	if loadRate < 1.0e9 || loadRate > 1.2e9 {
		t.Errorf("HPL instruction rate = %v, want ~1.116e9", loadRate)
	}
	if idleRate > loadRate/10 {
		t.Errorf("idle rate %v not well below load rate %v", idleRate, loadRate)
	}
}

func TestStatsPubPublishesTableIII(t *testing.T) {
	rig := newRig(t, false)
	rig.boot(t)
	if err := rig.engine.RunUntil(rig.engine.Now() + 30); err != nil {
		t.Fatal(err)
	}
	for _, metric := range StatsMetrics {
		series := rig.db.Query(Filter{Plugin: "dstat_pub", Metric: metric})
		if len(series) != 1 {
			t.Errorf("metric %s: %d series, want 1", metric, len(series))
			continue
		}
		if len(series[0].Points) < 4 { // 0.2 Hz over ~30 s
			t.Errorf("metric %s: %d points", metric, len(series[0].Points))
		}
	}
	// Temperatures must be plausible.
	temps := rig.db.Query(Filter{Metric: "temperature.cpu_temp"})
	last := temps[0].Points[len(temps[0].Points)-1]
	if last.V < 25 || last.V > 110 {
		t.Errorf("cpu temp = %v", last.V)
	}
}

func TestPluginsQuietWhileBooting(t *testing.T) {
	rig := newRig(t, false)
	if err := rig.node.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	if err := rig.pmu.Start(rig.engine); err != nil {
		t.Fatal(err)
	}
	if err := rig.stats.Start(rig.engine); err != nil {
		t.Fatal(err)
	}
	if err := rig.engine.RunUntil(5); err != nil { // still in R1
		t.Fatal(err)
	}
	if rig.db.SeriesCount() != 0 {
		t.Errorf("plugins published during boot: %d series", rig.db.SeriesCount())
	}
}

func TestPluginStartStop(t *testing.T) {
	rig := newRig(t, false)
	rig.boot(t)
	if err := rig.pmu.Start(rig.engine); err == nil {
		t.Error("double start accepted")
	}
	rig.pmu.Stop()
	rig.stats.Stop()
	countAt := rig.broker.Published()
	if err := rig.engine.RunUntil(rig.engine.Now() + 10); err != nil {
		t.Fatal(err)
	}
	if rig.broker.Published() != countAt {
		t.Error("plugins still publishing after Stop")
	}
	// Restart works.
	if err := rig.pmu.Start(rig.engine); err != nil {
		t.Fatal(err)
	}
}

func TestTSDBQueryTimeRange(t *testing.T) {
	db := NewMemStore()
	tags := Tags{Org: "o", Cluster: "c", Node: "mc01", Plugin: "dstat_pub", Core: -1, Metric: "m"}
	for i := 0; i < 10; i++ {
		db.Insert(tags, float64(i), float64(i*10))
	}
	got := db.Query(Filter{Node: "mc01", From: 3, To: 7})
	if len(got) != 1 {
		t.Fatalf("series = %d", len(got))
	}
	if len(got[0].Points) != 4 {
		t.Errorf("points = %d, want 4 (t=3..6)", len(got[0].Points))
	}
	if got := db.Query(Filter{Node: "mc99"}); len(got) != 0 {
		t.Errorf("unknown node matched %d series", len(got))
	}
}

func TestRateHandlesResets(t *testing.T) {
	s := Series{Points: []Point{{T: 0, V: 100}, {T: 1, V: 300}, {T: 1, V: 300}, {T: 2, V: 500}}}
	r := Rate(s)
	if len(r.Points) != 2 {
		t.Fatalf("rate points = %d (zero-dt pairs must be skipped)", len(r.Points))
	}
	if r.Points[0].V != 200 || r.Points[1].V != 200 {
		t.Errorf("rates = %+v", r.Points)
	}
}

func TestRESTAPI(t *testing.T) {
	rig := newRig(t, false)
	rig.boot(t)
	if err := rig.engine.RunUntil(rig.engine.Now() + 15); err != nil {
		t.Fatal(err)
	}
	srv, err := NewRESTServer(rig.db)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Series listing.
	res, err := ts.Client().Get(ts.URL + "/api/v1/series")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var listing struct {
		Series []string `json:"series"`
	}
	if err := json.NewDecoder(res.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Series) == 0 {
		t.Fatal("no series listed")
	}

	// Range query for one core's cycle counter.
	res2, err := ts.Client().Get(ts.URL + "/api/v1/query?node=mc01&plugin=pmu_pub&metric=cycle&core=0")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var q struct {
		Series []struct {
			Node   string       `json:"node"`
			Core   int          `json:"core"`
			Points [][2]float64 `json:"points"`
		} `json:"series"`
	}
	if err := json.NewDecoder(res2.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if len(q.Series) != 1 || q.Series[0].Core != 0 || len(q.Series[0].Points) == 0 {
		t.Fatalf("query response = %+v", q)
	}

	// Bad parameters.
	res3, _ := ts.Client().Get(ts.URL + "/api/v1/query?core=banana")
	if res3.StatusCode != 400 {
		t.Errorf("bad core -> %d, want 400", res3.StatusCode)
	}
	res3.Body.Close()
	res4, _ := ts.Client().Get(ts.URL + "/api/v1/query?from=xyz")
	if res4.StatusCode != 400 {
		t.Errorf("bad from -> %d, want 400", res4.StatusCode)
	}
	res4.Body.Close()
}

func TestBuildHeatmap(t *testing.T) {
	db := NewMemStore()
	// Two nodes, cumulative counters growing at different rates.
	for _, nodeName := range []string{"mc01", "mc02"} {
		rate := 100.0
		if nodeName == "mc02" {
			rate = 200.0
		}
		for core := 0; core < 2; core++ {
			tags := Tags{Org: "o", Cluster: "c", Node: nodeName, Plugin: "pmu_pub", Core: core, Metric: "instret"}
			total := 0.0
			for i := 0; i <= 20; i++ {
				db.Insert(tags, float64(i)*0.5, total)
				total += rate * 0.5
			}
		}
	}
	hm, err := BuildHeatmap(db, []string{"mc01", "mc02"}, HeatmapOptions{
		Plugin: "pmu_pub", Metric: "instret", Rate: true, SumCores: true,
		From: 0, To: 10, BinWidth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hm.Bins() != 5 {
		t.Fatalf("bins = %d, want 5", hm.Bins())
	}
	// Node 1: 2 cores x 100/s = 200/s; node 2: 400/s.
	if math.Abs(hm.Values[0][2]-200) > 1e-9 {
		t.Errorf("mc01 rate = %v, want 200", hm.Values[0][2])
	}
	if math.Abs(hm.Values[1][2]-400) > 1e-9 {
		t.Errorf("mc02 rate = %v, want 400", hm.Values[1][2])
	}
	if hm.MaxValue() != 400 {
		t.Errorf("max = %v", hm.MaxValue())
	}
	if mean := hm.RowMean(1); math.Abs(mean-400) > 1e-9 {
		t.Errorf("row mean = %v", mean)
	}

	// Rows against a store wider than the request, a duplicated row and a
	// node without series: each row equals, bit for bit, the row built from
	// one Node-filtered query for that node alone.
	wide := heatmapStore(40)
	all := []string{"ghost"}
	for n := 0; n < 40; n++ {
		all = append(all, fmt.Sprintf("mc%02d", n))
	}
	for _, req := range []struct {
		name  string
		nodes []string
	}{
		{"subset of a wider store", []string{"mc07", "mc31", "mc02"}},
		{"duplicated row", []string{"mc11", "mc04", "mc11"}},
		{"node without series", []string{"mc01", "ghost", "mc39"}},
		{"every node and a ghost", all},
	} {
		name, nodes := req.name, req.nodes
		for _, opts := range []HeatmapOptions{
			{Plugin: "pmu_pub", Metric: "instret", Rate: true, SumCores: true, From: 0, To: 30, BinWidth: 2},
			{Plugin: "pmu_pub", Metric: "instret", SumCores: true, From: 0, To: 240, BinWidth: 60}, // rollup-aligned
			{Plugin: "hwmon", Metric: "cpu_temp", From: 10, To: 200, BinWidth: 7},
		} {
			hm, err := BuildHeatmap(wide, nodes, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			for r, nodeName := range nodes {
				want := nodeRow(t, wide, nodeName, opts)
				for c := range want {
					if math.Float64bits(hm.Values[r][c]) != math.Float64bits(want[c]) {
						t.Errorf("%s %+v: row %d (%s) bin %d = %v, per-node query gives %v",
							name, opts, r, nodeName, c, hm.Values[r][c], want[c])
					}
				}
			}
		}
	}
}

// heatmapStore fills a store with nodes nodes of four-core cumulative
// instret counters and a per-node temperature, 0.5 s apart for 250 s.
// Series are created in a shuffled order, so storage order interleaves
// nodes, and values are arbitrary floats, so sums depend on their order.
func heatmapStore(nodes int) *MemStore {
	rng := rand.New(rand.NewSource(5))
	var tags []Tags
	for n := 0; n < nodes; n++ {
		name := fmt.Sprintf("mc%02d", n)
		for core := 0; core < 4; core++ {
			tags = append(tags, Tags{Node: name, Plugin: "pmu_pub", Core: core, Metric: "instret"})
		}
		tags = append(tags, Tags{Node: name, Plugin: "hwmon", Core: -1, Metric: "cpu_temp"})
	}
	rng.Shuffle(len(tags), func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })
	db := NewMemStore()
	totals := make([]float64, len(tags))
	for i := 0; i <= 500; i++ {
		for k, tg := range tags {
			v := 40 + rng.Float64()*30
			if tg.Metric == "instret" {
				totals[k] += rng.Float64() * 1e9
				v = totals[k]
			}
			db.Insert(tg, float64(i)*0.5, v)
		}
	}
	return db
}

// nodeRow builds one heatmap row the way a per-node heatmap query would:
// one Node-filtered QueryAgg, binned and combined across the node's
// series.
func nodeRow(t *testing.T, st *MemStore, nodeName string, o HeatmapOptions) []float64 {
	t.Helper()
	op := AggSum
	if o.Rate {
		op = AggRate
	}
	agg, err := QueryAgg(st, Filter{Node: nodeName, Plugin: o.Plugin, Metric: o.Metric, From: o.From, To: o.To},
		AggOptions{Op: op, Step: o.BinWidth})
	if err != nil {
		t.Fatal(err)
	}
	bins := int(math.Ceil((o.To - o.From) / o.BinWidth))
	sums := make([]float64, bins)
	counts := make([]int, bins)
	for _, s := range agg {
		for _, p := range s.Points {
			bin := int(math.Round((p.T - o.From) / o.BinWidth))
			if bin < 0 || bin >= bins {
				continue
			}
			if o.Rate {
				sums[bin] += p.V * float64(p.N)
			} else {
				sums[bin] += p.V
			}
			counts[bin] += p.N
		}
	}
	series := max(len(agg), 1)
	row := make([]float64, bins)
	for c := range row {
		switch {
		case counts[c] == 0:
			row[c] = math.NaN()
		case o.SumCores:
			row[c] = sums[c] / float64(counts[c]) * float64(series)
		default:
			row[c] = sums[c] / float64(counts[c])
		}
	}
	return row
}

func TestBuildHeatmapValidation(t *testing.T) {
	db := NewMemStore()
	if _, err := BuildHeatmap(nil, []string{"a"}, HeatmapOptions{From: 0, To: 1, BinWidth: 1}); err == nil {
		t.Error("nil db accepted")
	}
	if _, err := BuildHeatmap(db, nil, HeatmapOptions{From: 0, To: 1, BinWidth: 1}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := BuildHeatmap(db, []string{"a"}, HeatmapOptions{From: 0, To: 1}); err == nil {
		t.Error("zero bin width accepted")
	}
	if _, err := BuildHeatmap(db, []string{"a"}, HeatmapOptions{From: 1, To: 1, BinWidth: 1}); err == nil {
		t.Error("empty range accepted")
	}
	// Non-finite axes and over-wide grids are rejected before the grid is
	// allocated (each of these used to panic in makeslice).
	nan, inf := math.NaN(), math.Inf(1)
	for _, opts := range []HeatmapOptions{
		{From: 0, To: 10, BinWidth: nan},
		{From: nan, To: 10, BinWidth: 1},
		{From: 0, To: inf, BinWidth: 1},
		{From: 0, To: nan, BinWidth: 1},
		{From: -inf, To: 10, BinWidth: 1},
		{From: 0, To: 1e12, BinWidth: 1e-3},
	} {
		if _, err := BuildHeatmap(db, []string{"a"}, opts); err == nil {
			t.Errorf("heatmap axis %+v accepted", opts)
		}
	}
	// Empty data yields NaN cells, not an error.
	hm, err := BuildHeatmap(db, []string{"a"}, HeatmapOptions{From: 0, To: 2, BinWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(hm.Values[0][0]) {
		t.Error("empty bin not NaN")
	}
}

func intPtr(v int) *int { return &v }
