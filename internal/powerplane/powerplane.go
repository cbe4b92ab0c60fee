// Package powerplane implements the cluster half of the dynamic power
// management the paper lists as future work (Section VI item ii): a
// cluster-wide power budget governor layered on top of the per-node DVFS
// governors of package dtm.
//
// Once a second the governor measures the total board draw through the
// ExaMon v2 query layer (power_pub publishes per-node rail totals; the
// governor runs an aggregating range query over the last control window),
// splits the budget into equal per-node caps, RAPL-style — nodes drawing
// below their share donate the surplus, in equal parts, to nodes pushing
// against theirs — and hands each cap to that node's dtm governor, whose
// DVFS actuator enforces it. Budget, draw, headroom and throttle state are
// published back into ExaMon as typed samples, and the governor doubles
// as the scheduler's PowerAdvisor so placement decisions consult predicted
// job draw before committing nodes.
package powerplane

import (
	"fmt"
	"math"

	"montecimone/internal/cluster"
	"montecimone/internal/dtm"
	"montecimone/internal/examon"
	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

// Config tunes the cluster power governor.
type Config struct {
	// BudgetW is the cluster power budget in watts (required).
	BudgetW float64
	// Org and Cluster tag the published telemetry (ExaMon defaults).
	Org, Cluster string
}

// period is the control interval in seconds.
const period = 1.0

// capSlackW is the margin a node keeps above its measured draw when it
// donates surplus budget, so ordinary load noise does not immediately
// throttle it.
const capSlackW = 0.2

// reservationPeriods is how many control periods a placement reservation
// outlives: by then power_pub samples of the new load dominate the
// measurement window and the reservation would double-count.
const reservationPeriods = 2

// reservation is predicted draw of a placement not yet visible to the
// measurement window.
type reservation struct {
	watts float64
	until float64
}

// Governor is the cluster power-budget controller.
type Governor struct {
	engine *sim.Engine
	cl     *cluster.Cluster
	store  *examon.MemStore
	broker *examon.Broker
	cfg    Config

	govs []*dtm.Governor // indexed like cl.Node
	tick sim.Handle

	drawW        float64
	lastHeadroom float64
	throttled    int
	reservations []reservation
	onHeadroom   func()

	// State-sample handles: budget, draw, headroom and throttled-node
	// count on the master node, then one cap per node, indexed like
	// cl.Node. hs and vs are the per-tick publish scratch.
	stateSeries [4]*examon.SeriesHandle
	capSeries   []*examon.SeriesHandle
	hs          []*examon.SeriesHandle
	vs          []float64

	// index resolves a telemetry node tag to its node index; a tag that
	// names no node of this cluster is absent, and its series ignored.
	index    map[string]int
	perNode  []float64          // last measured draw, watts, indexed like cl.Node
	measured []bool             // scratch: perNode[i] came from telemetry this tick
	caps     []float64          // last distributed caps, watts, indexed like cl.Node; 0 = none
	aggRes   []examon.AggSeries // scratch: reused measurement query result
	shares   []share            // scratch: reused per-tick distribution table
}

// share is one running node's row in the distribute() water-filling pass.
type share struct {
	i      int // node index
	draw   float64
	cap    float64
	capped bool
}

// New builds a governor over the cluster. store is the telemetry store
// the broker feeds, where the power_pub samples land; broker receives the
// governor's own state samples, whose series handles New registers, so
// scope tags the broker cannot publish fail here. One dtm governor per
// node is created and owned by the plane.
func New(engine *sim.Engine, cl *cluster.Cluster, store *examon.MemStore, broker *examon.Broker, cfg Config) (*Governor, error) {
	if engine == nil || cl == nil || store == nil || broker == nil {
		return nil, fmt.Errorf("powerplane: engine, cluster, storage and broker are all required")
	}
	if !(cfg.BudgetW > 0) || math.IsInf(cfg.BudgetW, 1) {
		return nil, fmt.Errorf("powerplane: budget must be positive and finite, got %v W", cfg.BudgetW)
	}
	if cfg.Org == "" {
		cfg.Org = examon.DefaultOrg
	}
	if cfg.Cluster == "" {
		cfg.Cluster = examon.DefaultCluster
	}
	g := &Governor{
		engine:   engine,
		cl:       cl,
		store:    store,
		broker:   broker,
		cfg:      cfg,
		govs:     make([]*dtm.Governor, cl.Size()),
		index:    make(map[string]int, cl.Size()),
		perNode:  make([]float64, cl.Size()),
		measured: make([]bool, cl.Size()),
		caps:     make([]float64, cl.Size()),
	}
	for i := range g.govs {
		g.index[cl.Node(i).Hostname()] = i
		gov, err := dtm.New(cl.Node(i))
		if err != nil {
			return nil, fmt.Errorf("powerplane: %w", err)
		}
		g.govs[i] = gov
	}
	register := func(host, metric string) (*examon.SeriesHandle, error) {
		h, err := broker.Register(examon.Tags{Org: cfg.Org, Cluster: cfg.Cluster,
			Node: host, Plugin: "powerplane", Core: -1, Metric: metric})
		if err != nil {
			return nil, fmt.Errorf("powerplane: %w", err)
		}
		return h, nil
	}
	for i, metric := range []string{"budget_w", "draw_w", "headroom_w", "throttled_nodes"} {
		h, err := register(cluster.MasterHostname, metric)
		if err != nil {
			return nil, err
		}
		g.stateSeries[i] = h
	}
	for i := 0; i < cl.Size(); i++ {
		h, err := register(cl.Node(i).Hostname(), "cap_w")
		if err != nil {
			return nil, err
		}
		g.capSeries = append(g.capSeries, h)
	}
	return g, nil
}

// OnHeadroomIncrease registers a callback fired from the control loop
// whenever budget headroom grows — the scheduler hooks its Reschedule
// here so power-delayed jobs start as soon as draw falls.
func (g *Governor) OnHeadroomIncrease(fn func()) { g.onHeadroom = fn }

// Start launches the per-node governors and the budget control loop. The
// governors start in node order, so at every control instant they act in
// node order.
func (g *Governor) Start() error {
	if g.tick.Scheduled() {
		return fmt.Errorf("powerplane: governor already running")
	}
	for _, gov := range g.govs {
		if err := gov.Start(g.engine); err != nil {
			return fmt.Errorf("powerplane: %w", err)
		}
	}
	tick, err := g.engine.ScheduleEvery(g.engine.Now()+period, period, "powerplane.control", g.control)
	if err != nil {
		return fmt.Errorf("powerplane: %w", err)
	}
	g.tick = tick
	return nil
}

// Stop halts the control loop and the per-node governors (restoring the
// nominal operating points).
func (g *Governor) Stop() {
	g.tick.Cancel()
	for _, gov := range g.govs {
		gov.Stop()
	}
}

// control runs one budget interval: prune reservations, measure,
// distribute, publish. Reservation pruning happens only here, on the
// engine goroutine — the read paths (HeadroomWatts, Snapshot) must stay
// mutation-free because the REST server calls them from HTTP handlers.
func (g *Governor) control(e *sim.Engine) {
	now := e.Now()
	live := g.reservations[:0]
	for _, r := range g.reservations {
		if r.until > now {
			live = append(live, r)
		}
	}
	g.reservations = live
	g.measure(now)
	g.distribute()
	g.publish(now)
	if headroom := g.HeadroomWatts(); headroom > g.lastHeadroom && g.onHeadroom != nil {
		g.lastHeadroom = headroom
		g.onHeadroom()
	} else {
		g.lastHeadroom = headroom
	}
}

// measure refreshes the per-node draw from the telemetry database: an
// aggregating v2 query averaging each node's power_pub board total over
// the last 1.5 control windows. The plugin+metric filter rides the
// storage engines' inverted tag index, so each control tick touches only
// the power_pub rail series instead of scanning the whole database, and
// the result slice is reused across ticks (QueryAggInto). Nodes with no
// samples in the window yet (plane enabled without monitoring, or right
// after boot) fall back to an instantaneous model read so the budget
// never flies blind.
func (g *Governor) measure(now float64) {
	clear(g.measured)
	series, err := examon.QueryAggInto(g.aggRes[:0], g.store, examon.Filter{
		Plugin: "power_pub",
		Metric: examon.PowerTotalMetric,
		From:   now - 1.5*period,
	}, examon.AggOptions{Op: examon.AggAvg})
	if err == nil {
		g.aggRes = series
		for _, s := range series {
			if i, ok := g.index[s.Tags.Node]; ok && len(s.Points) > 0 {
				g.perNode[i] = s.Points[len(s.Points)-1].V / 1000
				g.measured[i] = true
			}
		}
	}
	total := 0.0
	for i := range g.perNode {
		if !g.measured[i] {
			g.perNode[i] = g.cl.Node(i).TotalMilliwatts() / 1000
		}
		total += g.perNode[i]
	}
	g.drawW = total
}

// distribute splits the budget into per-node caps — equal shares, then a
// water-filling pass that moves surplus from nodes drawing under their
// share to nodes pressed against theirs — and hands the caps to the dtm
// governors.
func (g *Governor) distribute() {
	active := g.shares[:0]
	g.throttled = 0
	for i, gov := range g.govs {
		if g.cl.Node(i).State() != node.StateRunning {
			gov.SetPowerCapW(0) // nothing to enforce on a node that is down
			g.caps[i] = 0
			continue
		}
		if gov.Scale() < 1 {
			g.throttled++
		}
		active = append(active, share{i: i, draw: g.perNode[i]})
	}
	g.shares = active
	if len(active) == 0 {
		return
	}
	// Equal fair shares first; then donate the headroom nodes leave under
	// their share, in equal parts, to the nodes pressed against theirs. A
	// donor's own cap never drops below its share — caps are limits, not
	// allocations, so a donor ramping back up is throttled no further
	// than its guarantee while the next control tick re-balances.
	fair := g.cfg.BudgetW / float64(len(active))
	surplus, needed := 0.0, 0
	for i := range active {
		s := &active[i]
		s.cap = fair
		if s.draw+capSlackW < s.cap {
			surplus += s.cap - s.draw - capSlackW
		} else {
			s.capped = true // pressed against its share
			needed++
		}
	}
	if surplus > 0 && needed > 0 {
		extra := surplus / float64(needed)
		for i := range active {
			if active[i].capped {
				active[i].cap += extra
			}
		}
	}
	for _, s := range active {
		g.caps[s.i] = s.cap
		g.govs[s.i].SetPowerCapW(s.cap)
	}
}

// publish emits the plane's state as typed telemetry: cluster-level
// budget/draw/headroom/throttle samples tagged to the master node, plus
// one cap sample per compute node.
func (g *Governor) publish(now float64) {
	g.hs = append(g.hs[:0], g.stateSeries[:]...)
	g.vs = append(g.vs[:0], g.cfg.BudgetW, g.drawW, g.cfg.BudgetW-g.drawW, float64(g.throttled))
	for i, cap := range g.caps {
		if cap == 0 {
			continue
		}
		g.hs = append(g.hs, g.capSeries[i])
		g.vs = append(g.vs, cap)
	}
	// Every handle was registered with g.broker in New, so Publish cannot
	// fail here.
	_ = g.broker.Publish(now, g.hs, g.vs)
}

// BudgetW returns the configured budget.
func (g *Governor) BudgetW() float64 { return g.cfg.BudgetW }

// SetBudgetW changes the cluster power budget in place (fault campaigns
// model brownouts as budget steps). The next control tick measures,
// redistributes caps and publishes under the new budget; nothing is
// recomputed eagerly, exactly as a facility-side setpoint change would
// land between samples of a real governor.
func (g *Governor) SetBudgetW(w float64) error {
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("powerplane: budget must be positive and finite, got %v W", w)
	}
	g.cfg.BudgetW = w
	return nil
}

// DrawW returns the last measured total cluster draw.
func (g *Governor) DrawW() float64 { return g.drawW }

// ThrottledNodes returns how many nodes currently run below nominal.
func (g *Governor) ThrottledNodes() int { return g.throttled }

// Snapshot is the JSON shape of the plane's state for the REST API.
type Snapshot struct {
	BudgetW        float64            `json:"budget_w"`
	DrawW          float64            `json:"draw_w"`
	HeadroomW      float64            `json:"headroom_w"`
	ReservedW      float64            `json:"reserved_w"`
	ThrottledNodes int                `json:"throttled_nodes"`
	NodeCapsW      map[string]float64 `json:"node_caps_w"`
	NodeScales     map[string]float64 `json:"node_scales"`
}

// Snapshot returns the current plane state (served by mcmon's
// /api/v2/powerplane endpoint).
func (g *Governor) Snapshot() Snapshot {
	caps := make(map[string]float64, len(g.caps))
	scales := make(map[string]float64, len(g.govs))
	for i, gov := range g.govs {
		host := g.cl.Node(i).Hostname()
		if g.caps[i] != 0 {
			caps[host] = g.caps[i]
		}
		scales[host] = gov.Scale()
	}
	return Snapshot{
		BudgetW:        g.cfg.BudgetW,
		DrawW:          g.drawW,
		HeadroomW:      g.HeadroomWatts(),
		ReservedW:      g.reservedW(g.engine.Now()),
		ThrottledNodes: g.throttled,
		NodeCapsW:      caps,
		NodeScales:     scales,
	}
}

// The governor implements sched.PowerAdvisor so the powercap policy can
// consult it (the scheduler only sees the interface).

// PredictedJobWatts predicts the incremental draw of placing a job with
// the given steady activity profile (the workload model's calibrated
// Table VI column, via sched.JobSpec.Activity) on the given node count:
// the rail model at that activity minus the idle floor those running
// nodes already draw. Jobs without a model carry the idle zero profile
// and predict no incremental draw.
func (g *Governor) PredictedJobWatts(act power.Activity, nodes int) float64 {
	return PredictedWatts(act, nodes)
}

// PredictedWatts is the governor's draw predictor as a standalone
// function: the incremental watts of running the given activity profile
// on the given node count over the idle floor, from the calibrated rail
// model. The fleet meta-scheduler scores clusters with it before any
// cluster (and hence any live governor) exists, so the meta level and the
// admission gate price work with identical math.
func PredictedWatts(act power.Activity, nodes int) float64 {
	pm := power.Calibration()
	perNode := (pm.TotalMilliwatts(power.PhaseRun, act) -
		pm.TotalMilliwatts(power.PhaseRun, power.ActivityIdle)) / 1000
	if perNode < 0 {
		perNode = 0
	}
	return float64(nodes) * perNode
}

// IdleFloorWatts is the rail model's per-node idle draw in watts — the
// baseline a powered cluster pays before any placement. The meta level
// subtracts it from a cluster's power budget to get the budget actually
// available to workloads.
func IdleFloorWatts(nodes int) float64 {
	return float64(nodes) * power.Calibration().TotalMilliwatts(power.PhaseRun, power.ActivityIdle) / 1000
}

// HeadroomWatts returns the budget headroom available for new placements:
// budget minus measured draw minus unexpired placement reservations.
func (g *Governor) HeadroomWatts() float64 {
	h := g.cfg.BudgetW - g.drawW - g.reservedW(g.engine.Now())
	if h < 0 {
		return 0
	}
	return h
}

// NodeTempC returns node i's junction temperature for cooler-node
// placement.
func (g *Governor) NodeTempC(i int) float64 {
	return g.cl.Node(i).Temperature(thermal.SensorCPU)
}

// NotePlacement reserves a just-placed job's predicted watts until the
// measurement window has seen the new draw, preventing a burst of
// admissions in one scheduling pass from blowing through the budget.
func (g *Governor) NotePlacement(act power.Activity, nodes int) {
	g.reservations = append(g.reservations, reservation{
		watts: g.PredictedJobWatts(act, nodes),
		until: g.engine.Now() + reservationPeriods*period,
	})
}

// reservedW sums unexpired reservations without mutating anything (the
// control loop prunes expired entries).
func (g *Governor) reservedW(now float64) float64 {
	total := 0.0
	for _, r := range g.reservations {
		if r.until > now {
			total += r.watts
		}
	}
	return total
}
