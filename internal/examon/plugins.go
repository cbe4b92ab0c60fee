package examon

import (
	"fmt"

	"montecimone/internal/node"
	"montecimone/internal/perf"
	"montecimone/internal/power"
	"montecimone/internal/sim"
)

// Sampling rates from Section IV-B: pmu_pub samples the performance
// counters at 2 Hz; stats_pub samples the OS statistics at 0.2 Hz.
// power_pub publishes the shunt-derived rail powers at 1 Hz (the raw
// 1 kHz shunt stream is averaged on the node before publication).
const (
	PMUPubPeriod   = 0.5
	StatsPubPeriod = 5.0
	PowerPubPeriod = 1.0
)

// Plugin is one per-node ExaMon sampling plugin: a recurring engine event
// that reads its node and publishes one batch per period through the
// broker. NewPMUPub, NewStatsPub and NewPowerPub build the three plugins
// the deployment runs; they differ only in name, period, the series they
// register and what a tick reads.
type Plugin struct {
	name   string // event-name component: pmu_pub, stats_pub or power_pub
	period float64
	broker *Broker
	node   *node.Node
	// series holds a handle per stream the plugin can publish, registered
	// at construction in the order fill walks them.
	series []*SeriesHandle
	// fill appends one tick's values to vs, one for each of a prefix of
	// series, in order.
	fill func(p *Plugin)

	tick sim.Handle
	vs   []float64 // per-tick scratch, reused across ticks
}

// pluginSeries names one stream of a plugin: the hart (-1 for node-level
// metrics) and the metric.
type pluginSeries struct {
	core   int
	metric string
}

func newPlugin(name, pluginTag string, period float64, fill func(*Plugin),
	broker *Broker, nd *node.Node, org, cluster string, series func(*node.Node) []pluginSeries) (*Plugin, error) {
	if broker == nil || nd == nil {
		return nil, fmt.Errorf("examon: %s needs a broker and node", name)
	}
	p := &Plugin{name: name, period: period, broker: broker, node: nd, fill: fill}
	for _, ps := range series(nd) {
		h, err := broker.Register(Tags{Org: org, Cluster: cluster, Node: nd.Hostname(),
			Plugin: pluginTag, Core: ps.core, Metric: ps.metric})
		if err != nil {
			return nil, fmt.Errorf("examon: %s on %s: %w", name, nd.Hostname(), err)
		}
		p.series = append(p.series, h)
	}
	return p, nil
}

// NewPMUPub builds the plugin publishing one node's hardware performance
// counters as exposed by perf_events. In the deployed kernel only INSTRET
// and CYCLE are available; the programmable HPM counters appear once the
// authors' U-Boot patch is applied.
func NewPMUPub(broker *Broker, nd *node.Node, org, cluster string) (*Plugin, error) {
	return newPlugin("pmu_pub", "pmu_pub", PMUPubPeriod, fillPMU, broker, nd, org, cluster, pmuSeries)
}

// NewStatsPub builds the plugin collecting one node's operating-system
// statistics from procfs/sysfs (Table III lists its metric groups).
func NewStatsPub(broker *Broker, nd *node.Node, org, cluster string) (*Plugin, error) {
	return newPlugin("stats_pub", "dstat_pub", StatsPubPeriod, fillStats, broker, nd, org, cluster,
		nodeSeries(StatsMetrics))
}

// NewPowerPub builds the plugin publishing one node's nine
// shunt-monitored rail powers and their board total. Unlike pmu_pub and
// stats_pub it samples out of band (the shunt ADCs sit on the board, not
// behind the OS), so it publishes in every powered state — the cluster
// power plane needs boot and halt draw in its budget accounting, not just
// the OS-up draw.
func NewPowerPub(broker *Broker, nd *node.Node, org, cluster string) (*Plugin, error) {
	return newPlugin("power_pub", "power_pub", PowerPubPeriod, fillPower, broker, nd, org, cluster,
		nodeSeries(powerMetrics))
}

// nodeSeries lists a plugin's node-level (core -1) streams, one per
// metric in order.
func nodeSeries(metrics []string) func(*node.Node) []pluginSeries {
	return func(*node.Node) []pluginSeries {
		out := make([]pluginSeries, len(metrics))
		for i, m := range metrics {
			out[i] = pluginSeries{core: -1, metric: m}
		}
		return out
	}
}

// Start begins sampling on the engine. Stop with Stop.
func (p *Plugin) Start(engine *sim.Engine) error {
	if p.tick.Scheduled() {
		return fmt.Errorf("examon: %s already started on %s", p.name, p.node.Hostname())
	}
	tick, err := engine.ScheduleEvery(engine.Now()+p.period, p.period,
		"examon."+p.name+"."+p.node.Hostname(), p.sample)
	if err != nil {
		return fmt.Errorf("examon: %w", err)
	}
	p.tick = tick
	return nil
}

// Stop halts sampling.
func (p *Plugin) Stop() { p.tick.Cancel() }

func (p *Plugin) sample(e *sim.Engine) {
	now := e.Now()
	// Bring the node model exactly to the sampling instant so reads are
	// independent of tick-interleaving with the cluster's integration.
	// Under lock-step this is a sub-period catch-up; under demand-driven
	// integration the sample IS the observation that advances the node.
	p.node.SyncTo(now)
	p.vs = p.vs[:0]
	p.fill(p)
	// One batch per node per tick, never rendered to the Table II string
	// encoding; an empty batch publishes nothing. The handles were
	// validated at construction and belong to p.broker, so Publish cannot
	// fail here.
	_ = p.broker.Publish(now, p.series[:len(p.vs)], p.vs)
}

// pmuEvents lists the counters pmu_pub reads on each hart: the fixed
// counters, then the programmable ones when the boot patch exposes them
// (a boot-time property of the PMU).
func pmuEvents(pmu *perf.PMU) [2][]perf.Event {
	events := [2][]perf.Event{perf.FixedEvents}
	if pmu.HPMEnabled() {
		events[1] = perf.ProgrammableEvents
	}
	return events
}

// pmuSeries lists pmu_pub's streams hart by hart, in pmuEvents order.
func pmuSeries(nd *node.Node) []pluginSeries {
	pmu := nd.PMU()
	var out []pluginSeries
	for core := 0; core < pmu.Harts(); core++ {
		for _, group := range pmuEvents(pmu) {
			for _, ev := range group {
				out = append(out, pluginSeries{core: core, metric: ev.String()})
			}
		}
	}
	return out
}

// fillPMU reads every exposed counter of every hart while the OS is up,
// in the order pmuSeries registered them. pmuEvents lists only counters
// the PMU exposes, so a read does not fail; if one did, the tick would
// publish the counters read before it.
func fillPMU(p *Plugin) {
	if p.node.State() != node.StateRunning {
		return
	}
	pmu := p.node.PMU()
	events := pmuEvents(pmu)
	for core := 0; core < pmu.Harts(); core++ {
		for _, group := range events {
			for _, ev := range group {
				v, err := pmu.Read(core, ev)
				if err != nil {
					return
				}
				p.vs = append(p.vs, float64(v))
			}
		}
	}
}

// StatsMetrics lists the Table III metric names in table order.
var StatsMetrics = []string{
	"load_avg.1m", "load_avg.5m", "load_avg.15m",
	"io_total.read", "io_total.writ",
	"procs.run", "procs.blk", "procs.new",
	"memory_usage.used", "memory_usage.free", "memory_usage.buff", "memory_usage.cach",
	"paging.in", "paging.out",
	"dsk_total.read", "dsk_total.writ",
	"system.int", "system.csw",
	"total_cpu_usage.usr", "total_cpu_usage.sys", "total_cpu_usage.idl",
	"total_cpu_usage.wai", "total_cpu_usage.stl",
	"net_total.recv", "net_total.send",
	"temperature.mb_temp", "temperature.cpu_temp", "temperature.nvme_temp",
}

// fillStats reads the Table III statistics while the OS is up.
func fillStats(p *Plugin) {
	if p.node.State() != node.StateRunning {
		return
	}
	st := p.node.Stats()
	// values is aligned index-for-index with StatsMetrics (Table III
	// order); the array literal lives on the stack, so a tick builds the
	// batch without the string-keyed map the historical implementation
	// hashed 28 times per sample.
	values := [...]float64{
		st.Load1, st.Load5, st.Load15,
		st.IORead, st.IOWrite,
		st.ProcsRun, st.ProcsBlk, st.ProcsNew,
		st.MemUsed, st.MemFree, st.MemBuff, st.MemCach,
		st.PagingIn, st.PagingOut,
		st.DiskRead, st.DiskWrite,
		st.SystemInt, st.SystemCsw,
		st.CPUUsr, st.CPUSys, st.CPUIdl,
		st.CPUWai, st.CPUStl,
		st.NetRecv, st.NetSend,
		st.TempMB, st.TempCPU, st.TempNVMe,
	}
	p.vs = append(p.vs, values[:]...)
}

// PowerTotalMetric is the power_pub metric carrying the nine-rail board
// total in milliwatts; the per-rail metrics are "power.<rail>".
const PowerTotalMetric = "power.total"

// powerMetrics lists power_pub's metrics: "power.<rail>" in power.Rails
// order, then the board total.
var powerMetrics = func() []string {
	names := make([]string, 0, len(power.Rails)+1)
	for _, rail := range power.Rails {
		names = append(names, "power."+string(rail))
	}
	return append(names, PowerTotalMetric)
}()

// fillPower reads the nine rails and their total in every powered state.
func fillPower(p *Plugin) {
	total := 0.0
	for _, rail := range power.Rails {
		mw := p.node.RailMilliwatts(rail)
		total += mw
		p.vs = append(p.vs, mw)
	}
	p.vs = append(p.vs, total)
}
