package core

import (
	"fmt"

	"montecimone/internal/examon"
	"montecimone/internal/hpl"
	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/telemetry"
	"montecimone/internal/thermal"
)

// PaperN and PaperNB are the HPL configuration of Section V-A.
const (
	PaperN  = 40704
	PaperNB = 192
)

// ScalingPoint is one Fig. 2 data point.
type ScalingPoint struct {
	// Nodes is the allocation size; Grid the process grid.
	Nodes int
	P, Q  int
	// MeanGFlops/StdGFlops over the repetitions, the runtime statistics,
	// and the relative speedup over the single-node mean.
	MeanGFlops, StdGFlops   float64
	MeanSeconds, StdSeconds float64
	Speedup                 float64
	// LinearFraction is MeanGFlops / (Nodes x single-node mean).
	LinearFraction float64
}

// Fig2 regenerates the HPL strong-scaling study: N=40704, NB=192, 1..8
// nodes, 10 repetitions each.
func Fig2(seed int64) ([]ScalingPoint, error) {
	rng := sim.NewRNG(seed)
	points := make([]ScalingPoint, 0, 8)
	var singleMean float64
	for nodes := 1; nodes <= 8; nodes++ {
		stats, err := hpl.Repeat(hpl.Config{N: PaperN, NB: PaperNB, Nodes: nodes},
			10, rng, fmt.Sprintf("fig2.n%d", nodes))
		if err != nil {
			return nil, err
		}
		if nodes == 1 {
			singleMean = stats.MeanGFlops
		}
		points = append(points, ScalingPoint{
			Nodes: nodes, P: stats.Base.P, Q: stats.Base.Q,
			MeanGFlops: stats.MeanGFlops, StdGFlops: stats.StdGFlops,
			MeanSeconds: stats.MeanSeconds, StdSeconds: stats.StdSeconds,
			Speedup:        stats.MeanGFlops / singleMean,
			LinearFraction: stats.MeanGFlops / (float64(nodes) * singleMean),
		})
	}
	return points, nil
}

// PowerTraces is the Fig. 3 output: per-rail 1 ms-window traces for one
// benchmark snapshot.
type PowerTraces struct {
	// Workload names the benchmark; Traces holds one series per rail
	// (names are the rail names, unit mW).
	Workload string
	Traces   *telemetry.Set
}

// traceSampleHz is the raw shunt sampling rate the traces are averaged
// from; Fig. 3 uses 1 ms averaging windows.
const (
	traceSampleHz   = 5000.0
	traceWindowSec  = 1e-3
	fig3DurationSec = 8.0
)

// Fig3 regenerates the 8-second power-trace snapshots for the given
// workload ("hpl", "stream.l2", "stream.ddr", "qe", "idle").
func Fig3(workload string, seed int64) (*PowerTraces, error) {
	act, mem, err := workloadActivity(workload)
	if err != nil {
		return nil, err
	}
	s, err := NewSystem(Options{Nodes: 1, NoMonitor: true, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		return nil, err
	}
	nd := s.Cluster.Node(0)
	if workload != "idle" {
		if err := nd.SetWorkload(workload, act, mem); err != nil {
			return nil, err
		}
	}
	// Let the workload settle, then record 8 s of raw samples.
	if err := s.Advance(5); err != nil {
		return nil, err
	}
	raw := telemetry.NewSet()
	start := s.Engine.Now()
	tick, err := s.Engine.ScheduleEvery(start, 1/traceSampleHz, "fig3.sample", func(e *sim.Engine) {
		now := e.Now()
		for _, rail := range power.Rails {
			clean := nd.RailMilliwatts(rail)
			noisy := clean + s.RNG.Normal("fig3."+string(rail), 0, shuntNoiseMilliwatts(clean))
			// Times are monotone by construction of the recurring event.
			if err := raw.Get(string(rail), "mW").Add(now-start, noisy); err != nil {
				panic(fmt.Sprintf("core: fig3 trace: %v", err))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := s.Advance(fig3DurationSec); err != nil {
		return nil, err
	}
	tick.Cancel()

	out := &PowerTraces{Workload: workload, Traces: telemetry.NewSet()}
	for _, rail := range power.Rails {
		ds, err := raw.Get(string(rail), "mW").Downsample(traceWindowSec)
		if err != nil {
			return nil, err
		}
		*out.Traces.Get(string(rail), "mW") = *ds
	}
	return out, nil
}

// shuntNoiseMilliwatts models the shunt ADC noise floor: 0.5 % of reading
// plus a 2 mW floor.
func shuntNoiseMilliwatts(reading float64) float64 {
	return 0.005*reading + 2
}

// BootTrace is the Fig. 4 output.
type BootTrace struct {
	// Traces holds one series per rail over the 80 s window (unit mW).
	Traces *telemetry.Set
	// PowerOnAt is when the power button was pressed within the trace.
	PowerOnAt float64
	// R1Mean, R2Mean and R3Mean are the measured core-rail means of the
	// three boot regions; PLLActivationAt is the R1->R2 edge.
	R1Mean, R2Mean, R3Mean float64
	PLLActivationAt        float64
}

// Fig4 regenerates the 80-second boot power trace with its region
// decomposition.
func Fig4(seed int64) (*BootTrace, error) {
	engine := sim.NewEngine()
	rng := sim.NewRNG(seed)
	nd, err := node.New(node.Config{ID: 1, Enclosure: thermal.DefaultEnclosure()})
	if err != nil {
		return nil, err
	}
	const powerOnAt = 4.0
	raw := telemetry.NewSet()
	if _, err := engine.ScheduleEvery(0, 1/traceSampleHz, "fig4.sample", func(e *sim.Engine) {
		now := e.Now()
		nd.Step(now)
		for _, rail := range power.Rails {
			clean := nd.RailMilliwatts(rail)
			noisy := clean + rng.Normal("fig4."+string(rail), 0, shuntNoiseMilliwatts(clean))
			if clean == 0 {
				noisy = 0 // no shunt current while off
			}
			if err := raw.Get(string(rail), "mW").Add(now, noisy); err != nil {
				panic(fmt.Sprintf("core: fig4 trace: %v", err))
			}
		}
	}); err != nil {
		return nil, err
	}
	if _, err := engine.ScheduleAt(powerOnAt, "fig4.poweron", func(e *sim.Engine) {
		// Power-on cannot fail on a fresh node.
		if err := nd.PowerOn(e.Now()); err != nil {
			panic(fmt.Sprintf("core: fig4 power on: %v", err))
		}
	}); err != nil {
		return nil, err
	}
	if err := engine.RunUntil(80); err != nil {
		return nil, err
	}

	out := &BootTrace{Traces: telemetry.NewSet(), PowerOnAt: powerOnAt}
	for _, rail := range power.Rails {
		ds, err := raw.Get(string(rail), "mW").Downsample(traceWindowSec)
		if err != nil {
			return nil, err
		}
		*out.Traces.Get(string(rail), "mW") = *ds
	}
	core := out.Traces.Lookup(string(power.RailCore))
	r1End := powerOnAt + node.R1Duration
	rampStart := powerOnAt + node.R1Duration + node.R2Duration - node.RampDuration
	bootEnd := powerOnAt + node.R1Duration + node.R2Duration
	if mean, ok := core.MeanBetween(powerOnAt+0.5, r1End-0.5); ok {
		out.R1Mean = mean
	}
	if mean, ok := core.MeanBetween(r1End+0.5, rampStart-0.5); ok {
		out.R2Mean = mean
	}
	if mean, ok := core.MeanBetween(bootEnd+5, 80); ok {
		out.R3Mean = mean
	}
	out.PLLActivationAt = r1End
	return out, nil
}

// HeatmapSet is the Fig. 5 output: the three ExaMon dashboard heatmaps for
// the full-machine HPL run.
type HeatmapSet struct {
	// InstructionsPerSec, NetworkBytesPerSec and MemoryUsedBytes are
	// nodes x time matrices.
	InstructionsPerSec *examon.Heatmap
	NetworkBytesPerSec *examon.Heatmap
	MemoryUsedBytes    *examon.Heatmap
	// RunSeconds is the monitored window length.
	RunSeconds float64
}

// Fig5 runs a monitored multi-node HPL execution and builds the ExaMon
// heatmaps. iterations bounds the playback length (the full 212-panel run
// is long; 40 iterations show several compute/communication bands).
func Fig5(iterations int, seed int64) (*HeatmapSet, error) {
	if iterations <= 0 {
		iterations = 40
	}
	s, err := NewSystem(Options{Nodes: 8, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		return nil, err
	}
	// The full-machine HPL run of Fig. 5 post-dates the thermal fix of
	// Fig. 6; without it node 7 trips partway through the run.
	if err := s.Cluster.ApplyAirflowMitigation(); err != nil {
		return nil, err
	}
	hosts := s.Cluster.Hostnames()
	start := s.Engine.Now()

	// Playback: walk the HPL iteration structure and alternate each
	// node's activity between the compute profile and a communication
	// profile (low issue rate, NIC busy), with durations from the
	// performance model.
	res, err := hpl.Simulate(hpl.Config{N: PaperN, NB: PaperNB, Nodes: 8})
	if err != nil {
		return nil, err
	}
	totalIters := (PaperN + PaperNB - 1) / PaperNB
	computePerIter := res.ComputeSeconds / float64(totalIters)
	commPerIter := res.CommSeconds / float64(totalIters)
	if commPerIter < 2.0 {
		commPerIter = 2.0 // keep the band visible at the 2 Hz sampling
	}
	commAct := power.Activity{CoreActivity: 0.05, DDRReadGBs: 0.12, DDRWriteGBs: 0.12, PCIeActivity: 0.05}

	all := s.Cluster.AllNodes()
	for it := 0; it < iterations; it++ {
		if err := s.Cluster.RunWorkloadOn(all, "hpl", power.ActivityHPL, hplMemBytes); err != nil {
			return nil, err
		}
		for _, i := range all {
			s.Cluster.Node(i).SetNetRates(0, 0)
		}
		if err := s.Advance(computePerIter); err != nil {
			return nil, err
		}
		if err := s.Cluster.RunWorkloadOn(all, "hpl", commAct, hplMemBytes); err != nil {
			return nil, err
		}
		perNodeBps := 117.5e6 * 0.8
		for _, i := range all {
			s.Cluster.Node(i).SetNetRates(perNodeBps, perNodeBps)
		}
		if err := s.Advance(commPerIter); err != nil {
			return nil, err
		}
	}
	end := s.Engine.Now()
	s.Cluster.ClearWorkloadOn(all)

	bin := (end - start) / 64
	instr, err := examon.BuildHeatmap(s.DB, hosts, examon.HeatmapOptions{
		Plugin: "pmu_pub", Metric: "instret", Rate: true, SumCores: true,
		From: start, To: end, BinWidth: bin,
	})
	if err != nil {
		return nil, err
	}
	net, err := examon.BuildHeatmap(s.DB, hosts, examon.HeatmapOptions{
		Plugin: "dstat_pub", Metric: "net_total.recv", Rate: true,
		From: start, To: end, BinWidth: bin,
	})
	if err != nil {
		return nil, err
	}
	mem, err := examon.BuildHeatmap(s.DB, hosts, examon.HeatmapOptions{
		Plugin: "dstat_pub", Metric: "memory_usage.used",
		From: start, To: end, BinWidth: bin,
	})
	if err != nil {
		return nil, err
	}
	return &HeatmapSet{
		InstructionsPerSec: instr,
		NetworkBytesPerSec: net,
		MemoryUsedBytes:    mem,
		RunSeconds:         end - start,
	}, nil
}

// ThermalReport is the Fig. 6 output.
type ThermalReport struct {
	// TrippedNode is the hostname that hit the 107 degC hazard; TripAt
	// the virtual time of the halt (relative to HPL start).
	TrippedNode string
	TripAt      float64
	// PeakBeforeMitigation is the hottest surviving node's steady
	// temperature with the lid on (~71 degC); PeakAfterMitigation the
	// same after the fix (~39 degC).
	PeakBeforeMitigation float64
	PeakAfterMitigation  float64
	// Temps holds per-node cpu_temp traces across the whole experiment.
	Temps *telemetry.Set
}

// Fig6 reproduces the thermal-runaway incident: full-machine HPL with the
// original enclosure until node 7 trips, then the airflow mitigation and a
// re-run.
func Fig6(seed int64) (*ThermalReport, error) {
	return fig6(Options{Nodes: 8, Seed: seed})
}

// fig6 is Fig6 on explicit options (for the physics-mode equivalence
// test, which regenerates it under lock-step and demand-driven
// integration).
func fig6(opts Options) (*ThermalReport, error) {
	s, err := NewSystem(opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		return nil, err
	}
	all := s.Cluster.AllNodes()
	report := &ThermalReport{Temps: telemetry.NewSet()}

	tripped := -1
	tripAt := -1.0
	s.Cluster.OnNodeHalt(func(i int) {
		if tripped < 0 {
			tripped = i
		}
	})

	// Record cpu_temp per node at 1 Hz.
	recorder, err := s.Engine.ScheduleEvery(s.Engine.Now(), 1.0, "fig6.temps", func(e *sim.Engine) {
		for i := 0; i < s.Cluster.Size(); i++ {
			nd := s.Cluster.Node(i)
			// Monotone times by construction of the recurring event.
			if err := report.Temps.Get(nd.Hostname(), "degC").Add(e.Now(), nd.Temperature(thermal.SensorCPU)); err != nil {
				panic(fmt.Sprintf("core: fig6 trace: %v", err))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	defer recorder.Cancel()

	// First HPL runs with the lid on.
	hplStart := s.Engine.Now()
	if err := s.Cluster.RunWorkloadOn(all, "hpl", power.ActivityHPL, hplMemBytes); err != nil {
		return nil, err
	}
	for i := 0; i < 7200 && tripped < 0; i++ {
		if err := s.Advance(1); err != nil {
			return nil, err
		}
	}
	if tripped < 0 {
		return nil, fmt.Errorf("core: fig6: no thermal trip within two hours")
	}
	tripAt = s.Engine.Now() - hplStart
	// Let the survivors reach their lid-on steady state.
	if err := s.Advance(900); err != nil {
		return nil, err
	}
	before := 0.0
	for i := 0; i < s.Cluster.Size(); i++ {
		if i == tripped {
			continue
		}
		if temp := s.Cluster.Node(i).Temperature(thermal.SensorCPU); temp > before {
			before = temp
		}
	}
	s.Cluster.ClearWorkloadOn(all)

	// Mitigation: remove the lids, increase spacing, power-cycle node 7.
	if err := s.Cluster.ApplyAirflowMitigation(); err != nil {
		return nil, err
	}
	if err := s.Advance(node.R1Duration + node.R2Duration + 300); err != nil {
		return nil, err
	}
	if err := s.Cluster.RunWorkloadOn(all, "hpl", power.ActivityHPL, hplMemBytes); err != nil {
		return nil, err
	}
	if err := s.Advance(1800); err != nil {
		return nil, err
	}
	after := 0.0
	for i := 0; i < s.Cluster.Size(); i++ {
		if temp := s.Cluster.Node(i).Temperature(thermal.SensorCPU); temp > after {
			after = temp
		}
	}
	s.Cluster.ClearWorkloadOn(all)

	report.TrippedNode = s.Cluster.Node(tripped).Hostname()
	report.TripAt = tripAt
	report.PeakBeforeMitigation = before
	report.PeakAfterMitigation = after
	return report, nil
}
