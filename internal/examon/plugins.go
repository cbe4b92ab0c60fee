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

// PMUPub is the per-node plugin publishing the hardware performance
// counters exposed by perf_events. In the deployed kernel only INSTRET and
// CYCLE are available; the programmable HPM counters appear once the
// authors' U-Boot patch is applied.
type PMUPub struct {
	broker  *Broker
	node    *node.Node
	org     string
	cluster string

	ticker *sim.Ticker
	batch  []Sample     // per-tick scratch, reused across samples
	events []perf.Event // counters this node exposes, fixed at Start
}

// NewPMUPub builds the plugin for one node.
func NewPMUPub(broker *Broker, nd *node.Node, org, cluster string) (*PMUPub, error) {
	if broker == nil || nd == nil {
		return nil, fmt.Errorf("examon: pmu_pub needs a broker and node")
	}
	if org == "" {
		org = DefaultOrg
	}
	if cluster == "" {
		cluster = DefaultCluster
	}
	return &PMUPub{broker: broker, node: nd, org: org, cluster: cluster}, nil
}

// Start begins sampling on the engine. Stop with Stop.
func (p *PMUPub) Start(engine *sim.Engine) error {
	if p.ticker != nil {
		return fmt.Errorf("examon: pmu_pub already started on %s", p.node.Hostname())
	}
	// The exposed counter set is a boot-time property (the U-Boot HPM
	// patch), so resolve it once here instead of rebuilding it every tick.
	p.events = append(p.events[:0], perf.FixedEvents...)
	if p.node.PMU().HPMEnabled() {
		p.events = append(p.events, perf.ProgrammableEvents...)
	}
	tk, err := sim.NewTicker(engine, engine.Now()+PMUPubPeriod, PMUPubPeriod,
		"examon.pmu_pub."+p.node.Hostname(), p.sample)
	if err != nil {
		return fmt.Errorf("examon: %w", err)
	}
	p.ticker = tk
	return nil
}

// Stop halts sampling.
func (p *PMUPub) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
		p.ticker = nil
	}
}

func (p *PMUPub) sample(now float64) {
	// Bring the node model exactly to the sampling instant so counter
	// reads are independent of tick-interleaving with the cluster's
	// integration. Under lock-step this is a sub-period catch-up; under
	// demand-driven integration the sample IS the observation that
	// advances the node.
	p.node.SyncTo(now)
	if p.node.State() != node.StateRunning {
		return
	}
	pmu := p.node.PMU()
	// Typed fast path: one batch per node per tick instead of one string
	// publish per counter per core — nothing is rendered to the Table II
	// encoding unless a legacy string subscriber is attached.
	p.batch = p.batch[:0]
	hostname := p.node.Hostname()
	for core := 0; core < pmu.Harts(); core++ {
		for _, ev := range p.events {
			v, err := pmu.Read(core, ev)
			if err != nil {
				continue // disabled counters silently absent, as on the real node
			}
			p.batch = append(p.batch, Sample{
				Tags: Tags{Org: p.org, Cluster: p.cluster, Node: hostname,
					Plugin: "pmu_pub", Core: core, Metric: ev.String()},
				T: now, V: float64(v),
			})
		}
	}
	// Errors cannot occur for well-formed tags; the plugin drops the batch
	// otherwise, like a QoS0 publisher.
	_ = p.broker.PublishBatch(p.batch)
}

// StatsPub is the per-node plugin collecting operating-system statistics
// from procfs/sysfs (Table III lists its metric groups).
type StatsPub struct {
	broker  *Broker
	node    *node.Node
	org     string
	cluster string

	ticker *sim.Ticker
	batch  []Sample // per-tick scratch, reused across samples
}

// NewStatsPub builds the plugin for one node.
func NewStatsPub(broker *Broker, nd *node.Node, org, cluster string) (*StatsPub, error) {
	if broker == nil || nd == nil {
		return nil, fmt.Errorf("examon: stats_pub needs a broker and node")
	}
	if org == "" {
		org = DefaultOrg
	}
	if cluster == "" {
		cluster = DefaultCluster
	}
	return &StatsPub{broker: broker, node: nd, org: org, cluster: cluster}, nil
}

// Start begins sampling on the engine.
func (s *StatsPub) Start(engine *sim.Engine) error {
	if s.ticker != nil {
		return fmt.Errorf("examon: stats_pub already started on %s", s.node.Hostname())
	}
	tk, err := sim.NewTicker(engine, engine.Now()+StatsPubPeriod, StatsPubPeriod,
		"examon.stats_pub."+s.node.Hostname(), s.sample)
	if err != nil {
		return fmt.Errorf("examon: %w", err)
	}
	s.ticker = tk
	return nil
}

// Stop halts sampling.
func (s *StatsPub) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
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

func (s *StatsPub) sample(now float64) {
	s.node.SyncTo(now) // sync to the sampling instant (see PMUPub.sample)
	if s.node.State() != node.StateRunning {
		return
	}
	st := s.node.Stats()
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
	// One typed batch per node per tick; see PMUPub.sample.
	s.batch = s.batch[:0]
	hostname := s.node.Hostname()
	for i, metric := range StatsMetrics {
		s.batch = append(s.batch, Sample{
			Tags: Tags{Org: s.org, Cluster: s.cluster, Node: hostname,
				Plugin: "dstat_pub", Core: -1, Metric: metric},
			T: now, V: values[i],
		})
	}
	_ = s.broker.PublishBatch(s.batch) // see PMUPub.sample
}

// PowerPub is the per-node plugin publishing the nine shunt-monitored rail
// powers and their board total. Unlike pmu_pub and stats_pub it samples
// out of band (the shunt ADCs sit on the board, not behind the OS), so it
// publishes in every powered state — the cluster power plane needs boot
// and halt draw in its budget accounting, not just the OS-up draw.
type PowerPub struct {
	broker  *Broker
	node    *node.Node
	org     string
	cluster string

	ticker *sim.Ticker
	batch  []Sample // per-tick scratch, reused across samples
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

// NewPowerPub builds the plugin for one node.
func NewPowerPub(broker *Broker, nd *node.Node, org, cluster string) (*PowerPub, error) {
	if broker == nil || nd == nil {
		return nil, fmt.Errorf("examon: power_pub needs a broker and node")
	}
	if org == "" {
		org = DefaultOrg
	}
	if cluster == "" {
		cluster = DefaultCluster
	}
	return &PowerPub{broker: broker, node: nd, org: org, cluster: cluster}, nil
}

// Start begins sampling on the engine.
func (p *PowerPub) Start(engine *sim.Engine) error {
	if p.ticker != nil {
		return fmt.Errorf("examon: power_pub already started on %s", p.node.Hostname())
	}
	tk, err := sim.NewTicker(engine, engine.Now()+PowerPubPeriod, PowerPubPeriod,
		"examon.power_pub."+p.node.Hostname(), p.sample)
	if err != nil {
		return fmt.Errorf("examon: %w", err)
	}
	p.ticker = tk
	return nil
}

// Stop halts sampling.
func (p *PowerPub) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
		p.ticker = nil
	}
}

func (p *PowerPub) sample(now float64) {
	p.node.SyncTo(now) // sync to the sampling instant (see PMUPub.sample)
	p.batch = p.batch[:0]
	hostname := p.node.Hostname()
	total := 0.0
	for i, rail := range power.Rails {
		mw := p.node.RailMilliwatts(rail)
		total += mw
		p.batch = append(p.batch, Sample{
			Tags: Tags{Org: p.org, Cluster: p.cluster, Node: hostname,
				Plugin: "power_pub", Core: -1, Metric: powerRailMetrics[i]},
			T: now, V: mw,
		})
	}
	p.batch = append(p.batch, Sample{
		Tags: Tags{Org: p.org, Cluster: p.cluster, Node: hostname,
			Plugin: "power_pub", Core: -1, Metric: PowerTotalMetric},
		T: now, V: total,
	})
	_ = p.broker.PublishBatch(p.batch) // see PMUPub.sample
}
