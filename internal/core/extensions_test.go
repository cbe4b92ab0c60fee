package core

import (
	"math"
	"testing"

	"montecimone/internal/node"
)

func TestThermalAnomalyScanWarnsBeforeTrip(t *testing.T) {
	rep, err := ThermalAnomalyScan(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectedAt < 0 {
		t.Fatal("runaway on mc07 not detected")
	}
	if rep.LeadSeconds <= 10 {
		t.Errorf("lead time = %.0f s, want a useful warning margin", rep.LeadSeconds)
	}
	if rep.DetectedAt >= rep.TripAt {
		t.Errorf("detected at %.0f after trip at %.0f", rep.DetectedAt, rep.TripAt)
	}
	// No runaway findings on well-behaved nodes.
	for _, a := range rep.Findings {
		if a.Tags.Node != "mc07" {
			t.Errorf("false positive on %s: %+v", a.Tags.Node, a)
		}
	}
}

func TestDTMStudyKeepsNode7Alive(t *testing.T) {
	rep, err := DTMStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Survived {
		t.Fatal("node 7 tripped despite the governor")
	}
	if rep.SteadyTempC > 96.5 {
		t.Errorf("steady temp %.1f above the default 95 degC cap", rep.SteadyTempC)
	}
	if rep.MeanScale >= 1 || rep.MeanScale < node.MinFreqScale {
		t.Errorf("mean scale = %.3f, want throttled within limits", rep.MeanScale)
	}
	if rep.ThrottledSeconds <= 0 {
		t.Error("no throttling recorded")
	}
}

func TestEnergyToSolution(t *testing.T) {
	rep, err := EnergyToSolution()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.NodeIdleWatts-4.810) > 0.001 || math.Abs(rep.NodeHPLWatts-5.939) > 0.02 {
		t.Errorf("node watts = %.3f / %.3f", rep.NodeIdleWatts, rep.NodeHPLWatts)
	}
	// Single node: ~5.94 W x ~23.7 ks ~ 141 kJ; ~0.32 GFLOPS/W.
	if rep.SingleNodeKJ < 130 || rep.SingleNodeKJ > 150 {
		t.Errorf("single-node energy = %.1f kJ", rep.SingleNodeKJ)
	}
	if rep.SingleNodeGFlopsPerWatt < 0.30 || rep.SingleNodeGFlopsPerWatt > 0.34 {
		t.Errorf("single-node efficiency = %.3f GFLOPS/W", rep.SingleNodeGFlopsPerWatt)
	}
	// The full machine is less energy efficient (communication idles the
	// FPUs at full board power).
	if rep.FullMachineGFlopsPerWatt >= rep.SingleNodeGFlopsPerWatt {
		t.Errorf("full machine %.3f GFLOPS/W not below single node %.3f",
			rep.FullMachineGFlopsPerWatt, rep.SingleNodeGFlopsPerWatt)
	}
}

func TestAcceleratorStudy(t *testing.T) {
	rep, err := AcceleratorStudy()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup < 5 {
		t.Errorf("speedup = %.2f", rep.Speedup)
	}
	if rep.AccelGFlopsPerWatt <= rep.HostGFlopsPerWatt {
		t.Errorf("card did not improve GFLOPS/W: %.3f vs %.3f",
			rep.AccelGFlopsPerWatt, rep.HostGFlopsPerWatt)
	}
	if rep.NodeWattsWithCard <= rep.HostGFlops/rep.HostGFlopsPerWatt {
		t.Error("card power unaccounted")
	}
}
