package qe

import (
	"math"
	"testing"

	"montecimone/internal/netsim"
	"montecimone/internal/sim"
	"montecimone/internal/soc"
)

func TestLAXPaperPoint(t *testing.T) {
	// Section V-A: 512^2 input, 1.44 +- 0.05 GFLOP/s (36 % of FPU peak)
	// over a 37.40 +- 0.14 s test.
	r, err := Run(Config{N: 512})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.GFlops-1.44) > 0.01 {
		t.Errorf("GFlops = %.3f, want 1.44", r.GFlops)
	}
	if math.Abs(r.Efficiency-0.36) > 0.005 {
		t.Errorf("efficiency = %.3f, want 0.36", r.Efficiency)
	}
	if math.Abs(r.Seconds-37.40)/37.40 > 0.02 {
		t.Errorf("duration = %.2f s, want ~37.40", r.Seconds)
	}
}

func TestLAXRepeatStats(t *testing.T) {
	stats, err := Repeat(Config{N: 512}, 10, sim.NewRNG(4), "qe")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.MeanSeconds-37.4) > 1.0 {
		t.Errorf("mean = %v", stats.MeanSeconds)
	}
	if stats.StdSeconds <= 0 || stats.StdSeconds > 0.5 {
		t.Errorf("std seconds = %v, want ~0.14 regime", stats.StdSeconds)
	}
	if stats.StdGFlops <= 0 || stats.StdGFlops > 0.15 {
		t.Errorf("std gflops = %v, want ~0.05 regime", stats.StdGFlops)
	}
}

func TestLAXDistributedFasterButLessEfficient(t *testing.T) {
	single, err := Run(Config{N: 2048, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.GigabitEthernet()
	multi, err := Run(Config{N: 2048, Iterations: 10, Nodes: 4, Link: &link})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Seconds >= single.Seconds {
		t.Errorf("4-node LAX %v not faster than single %v", multi.Seconds, single.Seconds)
	}
	if multi.Efficiency >= single.Efficiency {
		t.Errorf("4-node efficiency %v not below single %v", multi.Efficiency, single.Efficiency)
	}
}

func TestLAXValidation(t *testing.T) {
	if _, err := Run(Config{N: 0}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Run(Config{N: 512, Iterations: -1}); err == nil {
		t.Error("negative iterations accepted")
	}
	if _, err := Run(Config{N: 512, Efficiency: 2}); err == nil {
		t.Error("efficiency > 1 accepted")
	}
	if _, err := Run(Config{N: 512, Nodes: -2}); err == nil {
		t.Error("negative nodes accepted")
	}
	if _, err := Repeat(Config{N: 512}, 0, sim.NewRNG(1), "s"); err == nil {
		t.Error("zero reps accepted")
	}
	if _, err := Repeat(Config{N: 512}, 3, nil, "s"); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestLAXOtherMachines(t *testing.T) {
	// The model scales with the machine's peak.
	mc, err := Run(Config{N: 512})
	if err != nil {
		t.Fatal(err)
	}
	m100, err := Run(Config{N: 512, Machine: soc.Marconi100()})
	if err != nil {
		t.Fatal(err)
	}
	if m100.Seconds >= mc.Seconds {
		t.Error("Power9 node not faster than U740 on LAX")
	}
}
