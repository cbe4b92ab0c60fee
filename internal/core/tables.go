package core

import (
	"fmt"

	"montecimone/internal/examon"
	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/spack"
	"montecimone/internal/stream"
	"montecimone/internal/workload"
)

// TableI regenerates Table I: the user-facing software stack deployed via
// Spack for the linux-sifive-u74mc target.
func TableI() ([]spack.StackRow, error) {
	in, err := spack.NewInstaller(spack.BuiltinRepo(), "u74mc",
		spack.Compiler{Name: "gcc", Version: "10.3.0"})
	if err != nil {
		return nil, err
	}
	return in.InstallUserStack()
}

// TopicSpec is one row of Table II.
type TopicSpec struct {
	// Plugin is the publishing plugin; Topic the format with
	// placeholders; Payload the payload format.
	Plugin  string
	Topic   string
	Payload string
}

// TableII returns the ExaMon topic and payload formats of Table II.
func TableII() []TopicSpec {
	return []TopicSpec{
		{
			Plugin:  "pmu_pub",
			Topic:   "org/<org>/cluster/<cluster>/node/<hostname>/plugin/pmu_pub/chnl/data/core/<id>/<metric_name>",
			Payload: "<value>;<timestamp>",
		},
		{
			Plugin:  "stats_pub",
			Topic:   "org/<org>/cluster/<cluster>/node/<hostname>/plugin/dstat_pub/chnl/data/<metric_name>",
			Payload: "<value>;<timestamp>",
		},
	}
}

// MetricSample is one row of the Table III regeneration: a stats_pub
// metric with a live sampled value.
type MetricSample struct {
	// Metric is the Table III metric name; Value a sampled value.
	Metric string
	Value  float64
}

// TableIII boots a monitored system, lets stats_pub sample for a minute of
// virtual time and returns one live value per Table III metric.
func TableIII() ([]MetricSample, error) {
	return tableIII(Options{Nodes: 1})
}

// tableIII is TableIII on explicit options (the physics-mode equivalence
// test regenerates it under both integration modes).
func tableIII(opts Options) ([]MetricSample, error) {
	s, err := NewSystem(opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		return nil, err
	}
	if err := s.Advance(60); err != nil {
		return nil, err
	}
	out := make([]MetricSample, 0, len(examon.StatsMetrics))
	for _, metric := range examon.StatsMetrics {
		series := s.DB.Query(examon.Filter{Node: "mc01", Plugin: "dstat_pub", Metric: metric})
		if len(series) != 1 || len(series[0].Points) == 0 {
			return nil, fmt.Errorf("core: metric %s not collected", metric)
		}
		pts := series[0].Points
		out = append(out, MetricSample{Metric: metric, Value: pts[len(pts)-1].V})
	}
	return out, nil
}

// SensorRow is one row of Table IV: a temperature sensor with its sysfs
// file and a live reading.
type SensorRow struct {
	// Sensor is the paper's sensor name; SysfsFile the hwmon path;
	// MilliC the live reading in millidegrees.
	Sensor    string
	SysfsFile string
	MilliC    int64
}

// TableIV boots one node and reads the three hwmon sensors through their
// sysfs paths.
func TableIV() ([]SensorRow, error) {
	return tableIV(Options{Nodes: 1, NoMonitor: true})
}

// tableIV is TableIV on explicit options (for the physics-mode test).
func tableIV(opts Options) ([]SensorRow, error) {
	s, err := NewSystem(opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		return nil, err
	}
	if err := s.Advance(30); err != nil {
		return nil, err
	}
	nd := s.Cluster.Node(0)
	rows := []SensorRow{
		{Sensor: "nvme_temp", SysfsFile: node.HwmonNVMePath},
		{Sensor: "mb_temp", SysfsFile: node.HwmonMBPath},
		{Sensor: "cpu_temp", SysfsFile: node.HwmonCPUPath},
	}
	for i := range rows {
		v, err := nd.ReadHwmon(rows[i].SysfsFile)
		if err != nil {
			return nil, err
		}
		rows[i].MilliC = v
	}
	return rows, nil
}

// StreamTable is the Table V regeneration: per-kernel results for both
// dataset sizes.
type StreamTable struct {
	// DDR and L2 hold the 1945.5 MiB and 1.1 MiB rows.
	DDR []stream.Result
	L2  []stream.Result
}

// TableV regenerates Table V (STREAM, 4 threads, both working sets).
func TableV(seed int64) (*StreamTable, error) {
	rng := sim.NewRNG(seed)
	ddr, err := stream.Run(stream.Config{WorkingSetBytes: stream.DDRWorkingSetBytes, RNG: rng})
	if err != nil {
		return nil, err
	}
	l2, err := stream.Run(stream.Config{WorkingSetBytes: stream.L2WorkingSetBytes, RNG: rng})
	if err != nil {
		return nil, err
	}
	return &StreamTable{DDR: ddr, L2: l2}, nil
}

// PowerColumn is one workload column of Table VI.
type PowerColumn struct {
	// Workload names the column; Rails the per-rail milliwatts; Percent
	// the per-rail share of the column total; TotalMilliwatts the sum.
	Workload        string
	Rails           map[power.Rail]float64
	Percent         map[power.Rail]float64
	TotalMilliwatts float64
}

// TableVI regenerates the power-rail characterisation of Table VI,
// including the two boot columns.
func TableVI() []PowerColumn {
	pm := power.Calibration()
	type col struct {
		name  string
		phase power.Phase
		act   power.Activity
	}
	cols := []col{
		{"Idle", power.PhaseRun, power.ActivityIdle},
		{"HPL", power.PhaseRun, power.ActivityHPL},
		{"STREAM.L2", power.PhaseRun, power.ActivityStreamL2},
		{"STREAM.DDR", power.PhaseRun, power.ActivityStreamDDR},
		{"QE", power.PhaseRun, power.ActivityQE},
		{"Boot R1", power.PhaseR1, power.ActivityIdle},
		{"Boot R2", power.PhaseR2, power.ActivityIdle},
	}
	out := make([]PowerColumn, 0, len(cols))
	for _, c := range cols {
		rails := pm.Breakdown(c.phase, c.act)
		// Table order, as Model.TotalMilliwatts sums: map order would
		// round differently from call to call.
		total := 0.0
		for _, r := range power.Rails {
			total += rails[r]
		}
		percent := make(map[power.Rail]float64, len(rails))
		for r, v := range rails {
			if total > 0 {
				percent[r] = 100 * v / total
			}
		}
		out = append(out, PowerColumn{
			Workload: c.name, Rails: rails, Percent: percent, TotalMilliwatts: total,
		})
	}
	return out
}

// PowerDecomposition reports the Section V-B / Fig. 4 decomposition of the
// idle core and DDR power.
type PowerDecomposition struct {
	// Core components in milliwatts and as fractions of idle core power.
	CoreLeakage, CoreClockTree, CoreOS             float64
	CoreLeakageFrac, CoreClockTreeFrac, CoreOSFrac float64
	// DDR bank leakage and its fraction of the bank's idle power.
	DDRLeakage, DDRLeakageFrac float64
	// Idle and peak-workload system totals (abstract: 4.81 W and 5.935 W).
	IdleTotalMilliwatts, HPLTotalMilliwatts float64
}

// Decomposition computes the paper's power decomposition numbers.
func Decomposition() PowerDecomposition {
	pm := power.Calibration()
	leak, clk, osp := pm.CoreDecomposition()
	idleCore := pm.RailMilliwatts(power.RailCore, power.PhaseRun, power.ActivityIdle)
	ddrLeak, _ := pm.DDRMemDecomposition()
	idleDDR := pm.RailMilliwatts(power.RailDDRMem, power.PhaseRun, power.ActivityIdle)
	return PowerDecomposition{
		CoreLeakage: leak, CoreClockTree: clk, CoreOS: osp,
		CoreLeakageFrac:     leak / idleCore,
		CoreClockTreeFrac:   clk / idleCore,
		CoreOSFrac:          osp / idleCore,
		DDRLeakage:          ddrLeak,
		DDRLeakageFrac:      ddrLeak / idleDDR,
		IdleTotalMilliwatts: pm.TotalMilliwatts(power.PhaseRun, power.ActivityIdle),
		HPLTotalMilliwatts:  pm.TotalMilliwatts(power.PhaseRun, power.ActivityHPL),
	}
}

// Per-workload resident sets, resolved from the registry models so the
// figure/extension runners and campaign physics can never drift apart.
var (
	hplMemBytes    = workload.MustLookup("hpl").MemBytes
	streamMemBytes = workload.MustLookup("stream.ddr").MemBytes
	qeMemBytes     = workload.MustLookup("qe").MemBytes
)

// workloadActivity resolves a benchmark name through the workload
// registry — the single source of activity profiles and footprints; the
// per-experiment switch tables are gone.
func workloadActivity(name string) (power.Activity, float64, error) {
	m, err := workload.Lookup(name)
	if err != nil {
		return power.Activity{}, 0, fmt.Errorf("core: %w", err)
	}
	return m.Steady, m.MemBytes, nil
}
