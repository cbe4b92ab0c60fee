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
// the deployment runs; they differ only in name, period and what a tick
// reads.
type Plugin struct {
	name   string // event-name component: pmu_pub, stats_pub or power_pub
	period float64
	broker *Broker
	node   *node.Node
	tags   Tags                         // Org, Cluster, Node and Plugin of every sample
	fill   func(p *Plugin, now float64) // appends one tick's samples with add

	tick  sim.Handle
	batch []Sample // per-tick scratch, reused across samples
}

func newPlugin(name, pluginTag string, period float64, fill func(*Plugin, float64),
	broker *Broker, nd *node.Node, org, cluster string) (*Plugin, error) {
	if broker == nil || nd == nil {
		return nil, fmt.Errorf("examon: %s needs a broker and node", name)
	}
	if org == "" {
		org = DefaultOrg
	}
	if cluster == "" {
		cluster = DefaultCluster
	}
	return &Plugin{name: name, period: period, broker: broker, node: nd, fill: fill,
		tags: Tags{Org: org, Cluster: cluster, Node: nd.Hostname(), Plugin: pluginTag}}, nil
}

// NewPMUPub builds the plugin publishing one node's hardware performance
// counters as exposed by perf_events. In the deployed kernel only INSTRET
// and CYCLE are available; the programmable HPM counters appear once the
// authors' U-Boot patch is applied.
func NewPMUPub(broker *Broker, nd *node.Node, org, cluster string) (*Plugin, error) {
	return newPlugin("pmu_pub", "pmu_pub", PMUPubPeriod, fillPMU, broker, nd, org, cluster)
}

// NewStatsPub builds the plugin collecting one node's operating-system
// statistics from procfs/sysfs (Table III lists its metric groups).
func NewStatsPub(broker *Broker, nd *node.Node, org, cluster string) (*Plugin, error) {
	return newPlugin("stats_pub", "dstat_pub", StatsPubPeriod, fillStats, broker, nd, org, cluster)
}

// NewPowerPub builds the plugin publishing one node's nine
// shunt-monitored rail powers and their board total. Unlike pmu_pub and
// stats_pub it samples out of band (the shunt ADCs sit on the board, not
// behind the OS), so it publishes in every powered state — the cluster
// power plane needs boot and halt draw in its budget accounting, not just
// the OS-up draw.
func NewPowerPub(broker *Broker, nd *node.Node, org, cluster string) (*Plugin, error) {
	return newPlugin("power_pub", "power_pub", PowerPubPeriod, fillPower, broker, nd, org, cluster)
}

// Start begins sampling on the engine. Stop with Stop.
func (p *Plugin) Start(engine *sim.Engine) error {
	if p.tick.Scheduled() {
		return fmt.Errorf("examon: %s already started on %s", p.name, p.tags.Node)
	}
	tick, err := engine.ScheduleEvery(engine.Now()+p.period, p.period,
		"examon."+p.name+"."+p.tags.Node, p.sample)
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
	p.batch = p.batch[:0]
	p.fill(p, now)
	// One batch per node per tick, never rendered to the Table II string
	// encoding; an empty batch publishes nothing. Errors cannot occur for
	// well-formed tags; the plugin drops the batch otherwise, like a QoS0
	// publisher.
	_ = p.broker.PublishBatch(p.batch)
}

// add appends one sample of this tick to the batch.
func (p *Plugin) add(core int, metric string, now, v float64) {
	t := p.tags
	t.Core, t.Metric = core, metric
	p.batch = append(p.batch, Sample{Tags: t, T: now, V: v})
}

// fillPMU reads every exposed counter of every hart while the OS is up.
func fillPMU(p *Plugin, now float64) {
	if p.node.State() != node.StateRunning {
		return
	}
	pmu := p.node.PMU()
	// The exposed counter set is a boot-time property (the U-Boot HPM
	// patch): the fixed counters, then the programmable ones when patched.
	events := [2][]perf.Event{perf.FixedEvents}
	if pmu.HPMEnabled() {
		events[1] = perf.ProgrammableEvents
	}
	for core := 0; core < pmu.Harts(); core++ {
		for _, group := range events {
			for _, ev := range group {
				v, err := pmu.Read(core, ev)
				if err != nil {
					continue // disabled counters silently absent, as on the real node
				}
				p.add(core, ev.String(), now, float64(v))
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
func fillStats(p *Plugin, now float64) {
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
	for i, metric := range StatsMetrics {
		p.add(-1, metric, now, values[i])
	}
}

// PowerTotalMetric is the power_pub metric carrying the nine-rail board
// total in milliwatts; the per-rail metrics are "power.<rail>".
const PowerTotalMetric = "power.total"

// powerRailMetrics precomputes the per-rail metric names in power.Rails
// order, so the 1 Hz per-node sampler doesn't concatenate nine strings
// per tick.
var powerRailMetrics = func() []string {
	names := make([]string, len(power.Rails))
	for i, rail := range power.Rails {
		names[i] = "power." + string(rail)
	}
	return names
}()

// fillPower reads the nine rails and their total in every powered state.
func fillPower(p *Plugin, now float64) {
	total := 0.0
	for i, rail := range power.Rails {
		mw := p.node.RailMilliwatts(rail)
		total += mw
		p.add(-1, powerRailMetrics[i], now, mw)
	}
	p.add(-1, PowerTotalMetric, now, total)
}
