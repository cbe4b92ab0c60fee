// Package powerplane implements the cluster half of the dynamic power
// management the paper lists as future work (Section VI item ii): a
// cluster-wide power budget governor layered on top of the per-node DVFS
// governors of package dtm.
//
// The governor measures the total board draw through the ExaMon v2 query
// layer (power_pub publishes per-node rail totals; the governor runs an
// aggregating range query over the last control window), splits the
// budget into per-node caps with RAPL-style proportional sharing under
// priority weights — nodes drawing below their share donate the surplus
// to nodes pushing against theirs — and hands each cap to that node's dtm
// governor, whose DVFS actuator enforces it. Budget, draw, headroom and
// throttle state are published back into ExaMon as typed samples, and the
// governor doubles as the scheduler's PowerAdvisor so placement decisions
// consult predicted job draw before committing nodes.
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
	// Period is the control interval in seconds (default 1).
	Period float64
	// Weights are per-host priority weights for cap distribution
	// (default 1 for every host). Higher weight, larger guaranteed share.
	Weights map[string]float64
	// CapC is the per-node thermal ceiling handed to the dtm governors
	// (default the dtm default, 95 degC).
	CapC float64
	// Org and Cluster tag the published telemetry (ExaMon defaults).
	Org, Cluster string
}

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
	store  examon.Storage
	broker *examon.Broker
	pm     *power.Model
	cfg    Config

	govs   map[string]*dtm.Governor
	ticker *sim.Ticker

	drawW        float64
	lastHeadroom float64
	throttled    int
	reservations []reservation
	onHeadroom   func()

	batch   []examon.Sample
	perNode map[string]float64 // scratch: measured draw per host, watts
	caps    map[string]float64 // last distributed caps, watts
	aggRes  []examon.AggSeries // scratch: reused measurement query result
	shares  []share            // scratch: reused per-tick distribution table
}

// share is one running node's row in the distribute() water-filling pass.
type share struct {
	host   string
	weight float64
	draw   float64
	cap    float64
	capped bool
}

// New builds a governor over the cluster. store is the telemetry database
// the power_pub samples land in (a *examon.TSDB); broker receives the
// governor's own state samples. One dtm governor per node is created and
// owned by the plane.
func New(engine *sim.Engine, cl *cluster.Cluster, store examon.Storage, broker *examon.Broker, cfg Config) (*Governor, error) {
	if engine == nil || cl == nil || store == nil || broker == nil {
		return nil, fmt.Errorf("powerplane: engine, cluster, storage and broker are all required")
	}
	if cfg.BudgetW <= 0 {
		return nil, fmt.Errorf("powerplane: budget must be positive, got %v W", cfg.BudgetW)
	}
	if cfg.Period == 0 {
		cfg.Period = 1
	}
	if cfg.Period < 0 {
		return nil, fmt.Errorf("powerplane: negative period %v", cfg.Period)
	}
	if cfg.Org == "" {
		cfg.Org = examon.DefaultOrg
	}
	if cfg.Cluster == "" {
		cfg.Cluster = examon.DefaultCluster
	}
	for host, w := range cfg.Weights {
		if w <= 0 {
			return nil, fmt.Errorf("powerplane: weight %v for %s must be positive", w, host)
		}
	}
	g := &Governor{
		engine:  engine,
		cl:      cl,
		store:   store,
		broker:  broker,
		pm:      power.NewModel(),
		cfg:     cfg,
		govs:    make(map[string]*dtm.Governor, cl.Size()),
		perNode: make(map[string]float64, cl.Size()),
		caps:    make(map[string]float64, cl.Size()),
	}
	for i := 0; i < cl.Size(); i++ {
		nd := cl.Node(i)
		gov, err := dtm.New(nd, dtm.Config{CapC: cfg.CapC})
		if err != nil {
			return nil, fmt.Errorf("powerplane: %w", err)
		}
		g.govs[nd.Hostname()] = gov
	}
	return g, nil
}

// NodeGovernor returns the dtm governor owned by the plane for one host.
func (g *Governor) NodeGovernor(host string) *dtm.Governor { return g.govs[host] }

// OnHeadroomIncrease registers a callback fired from the control loop
// whenever budget headroom grows — the scheduler hooks its Reschedule
// here so power-delayed jobs start as soon as draw falls.
func (g *Governor) OnHeadroomIncrease(fn func()) { g.onHeadroom = fn }

// Start launches the per-node governors and the budget control loop.
func (g *Governor) Start() error {
	if g.ticker != nil {
		return fmt.Errorf("powerplane: governor already running")
	}
	for _, gov := range g.govs {
		if err := gov.Start(g.engine); err != nil {
			return fmt.Errorf("powerplane: %w", err)
		}
	}
	tk, err := sim.NewTicker(g.engine, g.engine.Now()+g.cfg.Period, g.cfg.Period,
		"powerplane.control", g.control)
	if err != nil {
		return fmt.Errorf("powerplane: %w", err)
	}
	g.ticker = tk
	return nil
}

// Stop halts the control loop and the per-node governors (restoring the
// nominal operating points).
func (g *Governor) Stop() {
	if g.ticker != nil {
		g.ticker.Stop()
		g.ticker = nil
	}
	for _, gov := range g.govs {
		gov.Stop()
	}
}

// control runs one budget interval: prune reservations, measure,
// distribute, publish. Reservation pruning happens only here, on the
// engine goroutine — the read paths (HeadroomWatts, Snapshot) must stay
// mutation-free because the REST server calls them from HTTP handlers.
func (g *Governor) control(now float64) {
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
	for h := range g.perNode {
		delete(g.perNode, h)
	}
	series, err := examon.QueryAggInto(g.aggRes[:0], g.store, examon.Filter{
		Plugin: "power_pub",
		Metric: examon.PowerTotalMetric,
		From:   now - 1.5*g.cfg.Period,
	}, examon.AggOptions{Op: examon.AggAvg})
	if err == nil {
		g.aggRes = series
		for _, s := range series {
			if len(s.Points) > 0 {
				g.perNode[s.Tags.Node] = s.Points[len(s.Points)-1].V / 1000
			}
		}
	}
	total := 0.0
	for i := 0; i < g.cl.Size(); i++ {
		nd := g.cl.Node(i)
		w, ok := g.perNode[nd.Hostname()]
		if !ok {
			w = nd.TotalMilliwatts() / 1000
			g.perNode[nd.Hostname()] = w
		}
		total += w
	}
	g.drawW = total
}

// distribute splits the budget into per-node caps — weight-proportional
// shares with two water-filling passes that move surplus from nodes
// drawing under their share to nodes pressed against theirs — and hands
// the caps to the dtm governors.
func (g *Governor) distribute() {
	active := g.shares[:0]
	sumW := 0.0
	g.throttled = 0
	for i := 0; i < g.cl.Size(); i++ {
		nd := g.cl.Node(i)
		host := nd.Hostname()
		gov := g.govs[host]
		if nd.State() != node.StateRunning {
			gov.SetPowerCapW(0) // nothing to enforce on a node that is down
			delete(g.caps, host)
			continue
		}
		if gov.Scale() < 1 {
			g.throttled++
		}
		w := 1.0
		if cw, ok := g.cfg.Weights[host]; ok {
			w = cw
		}
		active = append(active, share{host: host, weight: w, draw: g.perNode[host]})
		sumW += w
	}
	g.shares = active
	if len(active) == 0 {
		return
	}
	// Weighted fair shares first; then donate the headroom nodes leave
	// under their share to the nodes pressed against theirs. A donor's
	// own cap never drops below its share — caps are limits, not
	// allocations, so a donor ramping back up is throttled no further
	// than its guarantee while the next control tick re-balances.
	for i := range active {
		active[i].cap = g.cfg.BudgetW * active[i].weight / sumW
	}
	surplus, needW := 0.0, 0.0
	for i := range active {
		s := &active[i]
		if s.draw+capSlackW < s.cap {
			surplus += s.cap - s.draw - capSlackW
		} else {
			s.capped = true // pressed against its share
			needW += s.weight
		}
	}
	if surplus > 0 && needW > 0 {
		for i := range active {
			s := &active[i]
			if s.capped {
				s.cap += surplus * s.weight / needW
			}
		}
	}
	for _, s := range active {
		g.caps[s.host] = s.cap
		g.govs[s.host].SetPowerCapW(s.cap)
	}
}

// publish emits the plane's state as typed telemetry: cluster-level
// budget/draw/headroom/throttle samples tagged to the master node, plus
// one cap sample per compute node.
func (g *Governor) publish(now float64) {
	g.batch = g.batch[:0]
	clusterTags := func(metric string) examon.Tags {
		return examon.Tags{Org: g.cfg.Org, Cluster: g.cfg.Cluster,
			Node: cluster.MasterHostname, Plugin: "powerplane", Core: -1, Metric: metric}
	}
	g.batch = append(g.batch,
		examon.Sample{Tags: clusterTags("budget_w"), T: now, V: g.cfg.BudgetW},
		examon.Sample{Tags: clusterTags("draw_w"), T: now, V: g.drawW},
		examon.Sample{Tags: clusterTags("headroom_w"), T: now, V: g.cfg.BudgetW - g.drawW},
		examon.Sample{Tags: clusterTags("throttled_nodes"), T: now, V: float64(g.throttled)},
	)
	// Node order, not map order: telemetry ingest order must be
	// deterministic for the byte-identical regeneration guarantee.
	for i := 0; i < g.cl.Size(); i++ {
		host := g.cl.Node(i).Hostname()
		cap, ok := g.caps[host]
		if !ok {
			continue
		}
		g.batch = append(g.batch, examon.Sample{
			Tags: examon.Tags{Org: g.cfg.Org, Cluster: g.cfg.Cluster,
				Node: host, Plugin: "powerplane", Core: -1, Metric: "cap_w"},
			T: now, V: cap,
		})
	}
	_ = g.broker.PublishBatch(g.batch)
}

// BudgetW returns the configured budget.
func (g *Governor) BudgetW() float64 { return g.cfg.BudgetW }

// SetBudgetW changes the cluster power budget in place (fault campaigns
// model brownouts as budget steps). The next control tick measures,
// redistributes caps and publishes under the new budget; nothing is
// recomputed eagerly, exactly as a facility-side setpoint change would
// land between samples of a real governor.
func (g *Governor) SetBudgetW(w float64) error {
	if w <= 0 {
		return fmt.Errorf("powerplane: budget must be positive, got %v W", w)
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
	for h, c := range g.caps {
		caps[h] = c
	}
	scales := make(map[string]float64, len(g.govs))
	for h, gov := range g.govs {
		scales[h] = gov.Scale()
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
	return predictedWatts(g.pm, act, nodes)
}

// PredictedWatts is the governor's draw predictor as a standalone
// function: the incremental watts of running the given activity profile
// on the given node count over the idle floor, from the calibrated rail
// model. The fleet meta-scheduler scores clusters with it before any
// cluster (and hence any live governor) exists, so the meta level and the
// admission gate price work with identical math.
func PredictedWatts(act power.Activity, nodes int) float64 {
	return predictedWatts(power.NewModel(), act, nodes)
}

// IdleFloorWatts is the rail model's per-node idle draw in watts — the
// baseline a powered cluster pays before any placement. The meta level
// subtracts it from a cluster's power budget to get the budget actually
// available to workloads.
func IdleFloorWatts(nodes int) float64 {
	pm := power.NewModel()
	return float64(nodes) * pm.TotalMilliwatts(power.PhaseRun, power.ActivityIdle) / 1000
}

func predictedWatts(pm *power.Model, act power.Activity, nodes int) float64 {
	perNode := (pm.TotalMilliwatts(power.PhaseRun, act) -
		pm.TotalMilliwatts(power.PhaseRun, power.ActivityIdle)) / 1000
	if perNode < 0 {
		perNode = 0
	}
	return float64(nodes) * perNode
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

// NodeTempC returns the junction temperature for cooler-node placement.
// Unknown hosts read +Inf so they sort last.
func (g *Governor) NodeTempC(host string) float64 {
	nd, err := g.cl.NodeByHostname(host)
	if err != nil {
		return math.Inf(1)
	}
	return nd.Temperature(thermal.SensorCPU)
}

// NotePlacement reserves a just-placed job's predicted watts until the
// measurement window has seen the new draw, preventing a burst of
// admissions in one scheduling pass from blowing through the budget.
func (g *Governor) NotePlacement(act power.Activity, nodes int) {
	g.reservations = append(g.reservations, reservation{
		watts: g.PredictedJobWatts(act, nodes),
		until: g.engine.Now() + reservationPeriods*g.cfg.Period,
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
