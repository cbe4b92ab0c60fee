package core

import (
	"fmt"

	"montecimone/internal/accel"
	"montecimone/internal/dtm"
	"montecimone/internal/examon"
	"montecimone/internal/hpl"
	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/soc"
	"montecimone/internal/thermal"
)

// This file hosts the paper's future-work items implemented as extensions:
// dynamic power and thermal management (Section VI item ii) and the ODA
// anomaly-detection analytics (Section II) applied to the node-7 hazard.

// AnomalyScanReport is the outcome of replaying the thermal incident with
// the ExaMon anomaly detector watching the temperature series.
type AnomalyScanReport struct {
	// TripAt is when mc07 actually halted (seconds after HPL start);
	// DetectedAt when the runaway detector first flagged it; LeadSeconds
	// the warning margin.
	TripAt      float64
	DetectedAt  float64
	LeadSeconds float64
	// Findings are all detector hits across the cluster.
	Findings []examon.Anomaly
}

// ThermalAnomalyScan replays the Fig. 6 incident with monitoring enabled
// and runs the runaway detector over the collected cpu_temp series: the
// detector must flag node 7 before the hardware trip — the alerting the
// ODA stack would have provided the operators.
func ThermalAnomalyScan(seed int64) (*AnomalyScanReport, error) {
	s, err := NewSystem(Options{Nodes: 8, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		return nil, err
	}
	tripAt := -1.0
	s.Cluster.OnNodeHalt(func(int) {
		if tripAt < 0 {
			tripAt = s.Engine.Now()
		}
	})
	start := s.Engine.Now()
	if err := s.Cluster.RunWorkloadOn(s.Cluster.AllNodes(), "hpl", power.ActivityHPL, hplMemBytes); err != nil {
		return nil, err
	}
	for i := 0; i < 7200 && tripAt < 0; i++ {
		if err := s.Advance(1); err != nil {
			return nil, err
		}
	}
	if tripAt < 0 {
		return nil, fmt.Errorf("core: anomaly scan: no trip within two hours")
	}

	detector := examon.Detector{Limit: thermal.TripTempC, Window: 12, RunawayHorizon: 240}
	findings, err := detector.ScanAll(s.DB, examon.Filter{
		Plugin: "dstat_pub", Metric: "temperature.cpu_temp",
	})
	if err != nil {
		return nil, err
	}
	report := &AnomalyScanReport{TripAt: tripAt - start, Findings: findings, DetectedAt: -1}
	for _, a := range findings {
		if a.Tags.Node == "mc07" && a.Kind == examon.AnomalyRunaway {
			report.DetectedAt = a.Time - start
			break
		}
	}
	if report.DetectedAt >= 0 {
		report.LeadSeconds = report.TripAt - report.DetectedAt
	}
	return report, nil
}

// EnergyReport extends the paper's power characterisation to
// energy-to-solution for the HPL runs: with per-rail power and modelled
// runtimes in hand, the joules and GFLOPS/W of the RISC-V node follow.
type EnergyReport struct {
	// NodeIdleWatts and NodeHPLWatts are the per-node board powers.
	NodeIdleWatts, NodeHPLWatts float64
	// SingleNodeKJ and SingleNodeGFlopsPerWatt cover the N=40704
	// single-node run; the FullMachine fields the 8-node run.
	SingleNodeKJ, SingleNodeGFlopsPerWatt   float64
	FullMachineKJ, FullMachineGFlopsPerWatt float64
}

// EnergyToSolution derives HPL energy metrics from the power model and
// the calibrated run model.
func EnergyToSolution() (*EnergyReport, error) {
	pm := power.Calibration()
	idleW := pm.TotalMilliwatts(power.PhaseRun, power.ActivityIdle) / 1000
	hplW := pm.TotalMilliwatts(power.PhaseRun, power.ActivityHPL) / 1000

	single, err := hpl.Simulate(hpl.Config{N: PaperN, NB: PaperNB, Nodes: 1})
	if err != nil {
		return nil, err
	}
	full, err := hpl.Simulate(hpl.Config{N: PaperN, NB: PaperNB, Nodes: 8})
	if err != nil {
		return nil, err
	}
	return &EnergyReport{
		NodeIdleWatts: idleW,
		NodeHPLWatts:  hplW,

		SingleNodeKJ:             hplW * single.Seconds / 1000,
		SingleNodeGFlopsPerWatt:  single.GFlops / hplW,
		FullMachineKJ:            8 * hplW * full.Seconds / 1000,
		FullMachineGFlopsPerWatt: full.GFlops / (8 * hplW),
	}, nil
}

// AcceleratorReport projects the future-work PCIe accelerator onto the
// single-node HPL run.
type AcceleratorReport struct {
	// Card is the projected accelerator name.
	Card string
	// HostGFlops/AccelGFlops/Speedup follow accel.HPLProjection; Bound
	// names the limiting resource.
	HostGFlops, AccelGFlops, Speedup float64
	Bound                            string
	// NodeWattsWithCard is board power plus the busy card.
	NodeWattsWithCard float64
	// GFlopsPerWatt compares energy efficiency with and without the card.
	HostGFlopsPerWatt, AccelGFlopsPerWatt float64
}

// AcceleratorStudy projects the VectorCard onto a Monte Cimone node at
// the paper's HPL configuration.
func AcceleratorStudy() (*AcceleratorReport, error) {
	card := accel.VectorCard()
	machine := power.Calibration()
	proj, err := accel.ProjectHPL(soc.FU740(), card, PaperN, PaperNB)
	if err != nil {
		return nil, err
	}
	hostW := machine.TotalMilliwatts(power.PhaseRun, power.ActivityHPL) / 1000
	withCard := hostW + card.NodeWatts(1)
	return &AcceleratorReport{
		Card:               card.Name,
		HostGFlops:         proj.HostGFlops,
		AccelGFlops:        proj.AccelGFlops,
		Speedup:            proj.Speedup,
		Bound:              proj.Bound,
		NodeWattsWithCard:  withCard,
		HostGFlopsPerWatt:  proj.HostGFlops / hostW,
		AccelGFlopsPerWatt: proj.AccelGFlops / withCard,
	}, nil
}

// DTMReport is the outcome of running the hazard node under the thermal
// governor.
type DTMReport struct {
	// Survived reports whether node 7 stayed up for the whole window
	// (without the governor it trips).
	Survived bool
	// SteadyTempC is the capped junction temperature; MeanScale the
	// average DVFS operating point (the performance cost);
	// ThrottledSeconds the time spent below nominal.
	SteadyTempC      float64
	MeanScale        float64
	ThrottledSeconds float64
}

// DTMStudy runs node 7 (original enclosure) under sustained HPL for an
// hour with the thermal-capping governor: the future-work dynamic thermal
// management that would have kept the node in production.
func DTMStudy() (*DTMReport, error) {
	s, err := NewSystem(Options{Nodes: 8, NoMonitor: true})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		return nil, err
	}
	nd := s.Cluster.Node(6) // mc07, the hot slot
	gov, err := dtm.New(nd)
	if err != nil {
		return nil, err
	}
	if err := gov.Start(s.Engine); err != nil {
		return nil, err
	}
	defer gov.Stop()
	if err := s.Cluster.RunWorkloadOn(s.Cluster.AllNodes(), "hpl", power.ActivityHPL, hplMemBytes); err != nil {
		return nil, err
	}
	if err := s.Advance(3600); err != nil {
		return nil, err
	}
	return &DTMReport{
		Survived:         nd.State() == node.StateRunning,
		SteadyTempC:      nd.Temperature(thermal.SensorCPU),
		MeanScale:        gov.MeanScale(),
		ThrottledSeconds: gov.ThrottledSeconds(),
	}, nil
}
