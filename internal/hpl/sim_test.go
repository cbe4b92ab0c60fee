package hpl

import (
	"math"
	"testing"

	"montecimone/internal/netsim"
	"montecimone/internal/sim"
	"montecimone/internal/soc"
)

// paperConfig is the HPL configuration of Section V-A.
func paperConfig(nodes int) Config {
	return Config{N: 40704, NB: 192, Nodes: nodes}
}

// fig2GFlops holds the average attained throughput labels of Fig. 2.
var fig2GFlops = []float64{1.86, 3.50, 5.13, 6.63, 7.86, 9.54, 10.81, 12.65}

func TestFactorFlops(t *testing.T) {
	// N=40704: 2/3 N^3 + 2 N^2 = 4.496e13.
	got := FactorFlops(40704)
	want := 2.0/3.0*math.Pow(40704, 3) + 2*math.Pow(40704, 2)
	if got != want {
		t.Errorf("flops = %v, want %v", got, want)
	}
}

func TestDefaultGrid(t *testing.T) {
	tests := []struct{ ranks, p, q int }{
		{4, 2, 2}, {8, 2, 4}, {12, 3, 4}, {16, 4, 4},
		{20, 4, 5}, {24, 4, 6}, {28, 4, 7}, {32, 4, 8}, {1, 1, 1}, {7, 1, 7},
	}
	for _, tt := range tests {
		p, q := DefaultGrid(tt.ranks)
		if p != tt.p || q != tt.q {
			t.Errorf("DefaultGrid(%d) = %dx%d, want %dx%d", tt.ranks, p, q, tt.p, tt.q)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0, NB: 192, Nodes: 1},
		{N: 40704, NB: 0, Nodes: 1},
		{N: 100, NB: 192, Nodes: 1},
		{N: 40704, NB: 192, Nodes: 0},
		{N: 40704, NB: 192, Nodes: 1, RanksPerNode: -1},
		{N: 40704, NB: 192, Nodes: 1, P: 3, Q: 3}, // 9 != 4 ranks
	}
	for i, cfg := range bad {
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSingleNodePaperPoint(t *testing.T) {
	// Section V-A: 1.86 +- 0.04 GFLOP/s, 46.5 % of the 4 GFLOP/s peak,
	// total runtime 24105 +- 587 s.
	r, err := Simulate(paperConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.GFlops-1.86)/1.86 > 0.03 {
		t.Errorf("single-node GFlops = %.3f, want 1.86 +-3%%", r.GFlops)
	}
	if math.Abs(r.Efficiency-0.465) > 0.015 {
		t.Errorf("efficiency = %.3f, want ~0.465", r.Efficiency)
	}
	if math.Abs(r.Seconds-24105)/24105 > 0.035 {
		t.Errorf("runtime = %.0f s, want ~24105", r.Seconds)
	}
}

func TestFullMachinePaperPoint(t *testing.T) {
	// Section V-A: 12.65 +- 0.52 GFLOP/s on 8 nodes (runtime 3548 +- 136 s),
	// 39.5 % of machine peak, 85 % of linear scaling.
	r, err := Simulate(paperConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.GFlops-12.65)/12.65 > 0.05 {
		t.Errorf("8-node GFlops = %.3f, want 12.65 +-5%%", r.GFlops)
	}
	if math.Abs(r.Efficiency-0.395) > 0.02 {
		t.Errorf("8-node efficiency = %.3f, want ~0.395", r.Efficiency)
	}
	single, err := Simulate(paperConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	linearFraction := r.GFlops / (8 * single.GFlops)
	if math.Abs(linearFraction-0.85) > 0.05 {
		t.Errorf("fraction of linear scaling = %.3f, want ~0.85", linearFraction)
	}
}

func TestFig2ScalingShape(t *testing.T) {
	// Every Fig. 2 point within 8 %, monotone increasing throughput,
	// decreasing efficiency beyond one node.
	prevG := 0.0
	for nodes := 1; nodes <= 8; nodes++ {
		r, err := Simulate(paperConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		want := fig2GFlops[nodes-1]
		if math.Abs(r.GFlops-want)/want > 0.08 {
			t.Errorf("nodes=%d GFlops = %.3f, want %.2f +-8%%", nodes, r.GFlops, want)
		}
		if r.GFlops <= prevG {
			t.Errorf("throughput not increasing at %d nodes", nodes)
		}
		prevG = r.GFlops
	}
}

func TestComparisonMachinesEfficiency(t *testing.T) {
	// Section V-A: Marconi100 59.7 %, Armida 65.79 % of single-node
	// CPU-only peak with the same vanilla stack.
	tests := []struct {
		machine *soc.Machine
		want    float64
	}{
		{soc.Marconi100(), 0.597},
		{soc.Armida(), 0.6579},
	}
	for _, tt := range tests {
		r, err := Simulate(Config{
			N: 40704, NB: 192, Nodes: 1,
			RanksPerNode: tt.machine.Cores, Machine: tt.machine,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Efficiency-tt.want)/tt.want > 0.02 {
			t.Errorf("%s efficiency = %.4f, want %.4f +-2%%", tt.machine.Name, r.Efficiency, tt.want)
		}
	}
	// Ordering: Armida > Marconi100 > Monte Cimone, as in the paper.
	mc, _ := Simulate(paperConfig(1))
	m100, _ := Simulate(Config{N: 40704, NB: 192, Nodes: 1, RanksPerNode: 32, Machine: soc.Marconi100()})
	arm, _ := Simulate(Config{N: 40704, NB: 192, Nodes: 1, RanksPerNode: 64, Machine: soc.Armida()})
	if !(arm.Efficiency > m100.Efficiency && m100.Efficiency > mc.Efficiency) {
		t.Errorf("efficiency ordering broken: %v %v %v", mc.Efficiency, m100.Efficiency, arm.Efficiency)
	}
}

func TestLookaheadHelps(t *testing.T) {
	cfg := paperConfig(8)
	base, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Lookahead = true
	la, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if la.Seconds >= base.Seconds {
		t.Errorf("lookahead did not reduce runtime: %v >= %v", la.Seconds, base.Seconds)
	}
}

func TestWorkingInfinibandHelps(t *testing.T) {
	// Interconnect ablation: with functional FDR RDMA the 8-node run
	// approaches linear scaling.
	gbe, err := Simulate(paperConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	ib := netsim.InfinibandFDRWorking()
	fast, err := Simulate(Config{N: 40704, NB: 192, Nodes: 8, Link: &ib})
	if err != nil {
		t.Fatal(err)
	}
	if fast.GFlops < gbe.GFlops*1.03 {
		t.Errorf("IB speedup over GbE = %.3f, want > 1.03", fast.GFlops/gbe.GFlops)
	}
	// With RDMA the communication share of the critical path collapses;
	// the residual scaling loss is panel work and block-cyclic imbalance.
	if fast.CommSeconds > gbe.CommSeconds*0.1 {
		t.Errorf("IB comm time %v not well below GbE %v", fast.CommSeconds, gbe.CommSeconds)
	}
}

func TestBlockSizeSweepHasInteriorOptimum(t *testing.T) {
	// NB ablation: tiny blocks pay panel/latency costs, huge blocks lose
	// blocking efficiency; NB=192 should beat both extremes.
	small, err := Simulate(Config{N: 8192, NB: 8, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := Simulate(Config{N: 8192, NB: 192, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	huge, err := Simulate(Config{N: 8192, NB: 4096, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(mid.GFlops > small.GFlops) {
		t.Errorf("NB=192 (%.2f) not better than NB=8 (%.2f)", mid.GFlops, small.GFlops)
	}
	if !(mid.GFlops > huge.GFlops) {
		t.Errorf("NB=192 (%.2f) not better than NB=4096 (%.2f)", mid.GFlops, huge.GFlops)
	}
}

func TestComputeCommSplit(t *testing.T) {
	r, err := Simulate(paperConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if r.CommSeconds <= 0 {
		t.Error("no communication time on 8 nodes")
	}
	if r.ComputeSeconds <= 0 || r.ComputeSeconds+r.CommSeconds < r.Seconds*0.99 {
		t.Errorf("split inconsistent: compute %v + comm %v vs total %v", r.ComputeSeconds, r.CommSeconds, r.Seconds)
	}
	one, err := Simulate(paperConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if one.CommSeconds > one.Seconds*0.01 {
		t.Errorf("single node comm share too high: %v of %v", one.CommSeconds, one.Seconds)
	}
}

func TestRepeatStats(t *testing.T) {
	// The paper reports 24105 +- 587 s single node and 3548 +- 136 s on
	// eight nodes over 10 repetitions (2-4 % relative spread).
	rng := sim.NewRNG(1)
	stats, err := Repeat(paperConfig(1), 10, rng, "hpl.reps")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Samples) != 10 {
		t.Fatalf("samples = %d", len(stats.Samples))
	}
	rel := stats.StdSeconds / stats.MeanSeconds
	if rel < 0.005 || rel > 0.06 {
		t.Errorf("relative spread = %.4f, want 2-4%% regime", rel)
	}
	if math.Abs(stats.MeanSeconds-stats.Base.Seconds)/stats.Base.Seconds > 0.05 {
		t.Errorf("mean %v far from base %v", stats.MeanSeconds, stats.Base.Seconds)
	}
	// Determinism.
	again, err := Repeat(paperConfig(1), 10, sim.NewRNG(1), "hpl.reps")
	if err != nil {
		t.Fatal(err)
	}
	for i := range stats.Samples {
		if stats.Samples[i] != again.Samples[i] {
			t.Fatal("repeat not deterministic")
		}
	}
}

func TestRepeatValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := Repeat(paperConfig(1), 0, rng, "s"); err == nil {
		t.Error("zero reps accepted")
	}
	if _, err := Repeat(paperConfig(1), 5, nil, "s"); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := Repeat(Config{}, 5, rng, "s"); err == nil {
		t.Error("invalid config accepted")
	}
}
