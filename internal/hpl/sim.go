// Package hpl models the High-Performance Linpack benchmark (Petitet et
// al., HPL 2.3) that the paper uses as its headline workload. Simulate
// walks the blocked LU iteration structure of a 2-D block-cyclic run and
// charges compute and communication time from the calibrated node and
// fabric models; it regenerates the paper's single-node 1.86 GFLOP/s /
// 46.5 % result and the Fig. 2 strong-scaling series at N=40704, NB=192.
package hpl

import (
	"fmt"
	"math"

	"montecimone/internal/netsim"
	"montecimone/internal/sim"
	"montecimone/internal/soc"
)

// Config describes one modelled HPL run, mirroring the knobs of HPL.dat
// plus the machine placement. The paper's configuration is N=40704,
// NB=192, one MPI task per physical core (4 per node) over the 1 GbE
// fabric, with the process grid chosen near-square (column-major rank
// order, so process columns stay inside a node at 4 rows).
type Config struct {
	// N is the problem order; NB the panel width.
	N, NB int
	// Nodes is the node count; RanksPerNode the MPI tasks per node
	// (default 4, one per U74 core).
	Nodes        int
	RanksPerNode int
	// Machine is the node model (default soc.FU740()).
	Machine *soc.Machine
	// Link is the interconnect (default netsim.GigabitEthernet()).
	Link *netsim.Link
	// P and Q override the process grid; zero selects the near-square
	// default with P <= Q.
	P, Q int
	// Lookahead enables depth-1 panel lookahead (the upstream untuned
	// configuration runs without it; the ablation flips it on).
	Lookahead bool
}

// Result is the outcome of one modelled run.
type Result struct {
	// Echoed configuration.
	N, NB, Nodes, P, Q int
	// Seconds is the modelled wall time; GFlops the HPL rating.
	Seconds float64
	GFlops  float64
	// Efficiency is the fraction of the allocated nodes' FPU peak.
	Efficiency float64
	// ComputeSeconds and CommSeconds split the critical path.
	ComputeSeconds float64
	CommSeconds    float64
}

// FactorFlops returns the floating-point operations HPL credits a run
// with: 2/3 n^3 + 2 n^2.
func FactorFlops(n int) float64 {
	fn := float64(n)
	return 2.0/3.0*fn*fn*fn + 2*fn*fn
}

// DefaultGrid returns the near-square process grid with P <= Q used when
// the configuration does not pin one.
func DefaultGrid(ranks int) (p, q int) {
	p = 1
	for d := 1; d*d <= ranks; d++ {
		if ranks%d == 0 {
			p = d
		}
	}
	return p, ranks / p
}

// normalise applies defaults and validates.
func (c Config) normalise() (Config, error) {
	if c.N <= 0 || c.NB <= 0 {
		return c, fmt.Errorf("hpl: N and NB must be positive, got %d, %d", c.N, c.NB)
	}
	if c.NB > c.N {
		return c, fmt.Errorf("hpl: NB %d exceeds N %d", c.NB, c.N)
	}
	if c.Nodes <= 0 {
		return c, fmt.Errorf("hpl: node count must be positive, got %d", c.Nodes)
	}
	if c.RanksPerNode == 0 {
		c.RanksPerNode = 4
	}
	if c.RanksPerNode < 0 {
		return c, fmt.Errorf("hpl: ranks per node must be positive, got %d", c.RanksPerNode)
	}
	if c.Machine == nil {
		c.Machine = soc.FU740()
	}
	if c.Link == nil {
		link := netsim.GigabitEthernet()
		c.Link = &link
	}
	ranks := c.Nodes * c.RanksPerNode
	if c.P == 0 && c.Q == 0 {
		c.P, c.Q = DefaultGrid(ranks)
	}
	if c.P <= 0 || c.Q <= 0 || c.P*c.Q != ranks {
		return c, fmt.Errorf("hpl: grid %dx%d does not match %d ranks", c.P, c.Q, ranks)
	}
	return c, nil
}

// Simulate walks the blocked LU iteration structure, charging compute time
// from the calibrated machine model and communication time from the fabric
// model along the critical path, and returns the modelled run.
func Simulate(cfg Config) (Result, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return Result{}, err
	}
	fabric, err := netsim.NewFabric(cfg.Nodes, *cfg.Link)
	if err != nil {
		return Result{}, err
	}
	m := cfg.Machine
	ranksPerNode := cfg.RanksPerNode
	nodeOf := func(rank int) int { return rank / ranksPerNode }

	// transfer returns the inter-rank transfer time for one hop.
	transfer := func(src, dst int, bytes float64, sharing int) float64 {
		t, terr := fabric.TransferTime(nodeOf(src), nodeOf(dst), bytes, sharing)
		if terr != nil {
			// Unreachable: ranks map inside the fabric by construction.
			panic(fmt.Sprintf("hpl: transfer: %v", terr))
		}
		return t
	}
	// bcast models a binomial-tree broadcast critical path over a rank
	// group (group[0] is the root).
	bcast := func(group []int, bytes float64, sharing int) float64 {
		if len(group) <= 1 || bytes <= 0 {
			return 0
		}
		total := 0.0
		for hop := 1; hop < len(group); hop <<= 1 {
			dst := hop
			if dst >= len(group) {
				dst = len(group) - 1
			}
			total += transfer(group[0], group[dst], bytes, sharing)
		}
		return total
	}
	// allreduceSmall models the per-column pivot max-loc reduction over a
	// process column: a reduce plus a broadcast of a 16-byte pair.
	allreduceSmall := func(group []int) float64 {
		return 2 * bcast(group, 16, 1)
	}

	numPanels := (cfg.N + cfg.NB - 1) / cfg.NB
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }

	var total, compute, comm float64
	for k := 0; k < numPanels; k++ {
		gk := k * cfg.NB
		nk := cfg.N - gk
		jb := minInt(cfg.NB, nk)
		nrem := nk - jb // trailing matrix order after this panel

		blocks := ceilDiv(nk, cfg.NB)
		// Local panel rows on the owning process column (per rank).
		mloc := minInt(nk, ceilDiv(blocks, cfg.P)*cfg.NB)
		// Local trailing shape per rank.
		mlocU := 0
		nlocU := 0
		if nrem > 0 {
			mlocU = minInt(nrem, ceilDiv(blocks-1, cfg.P)*cfg.NB)
			nlocU = minInt(nrem, ceilDiv(blocks-1, cfg.Q)*cfg.NB)
		}

		ownerRow := k % cfg.P
		ownerCol := k % cfg.Q
		// Column-major rank order: rank = row + col*P.
		colGroup := make([]int, cfg.P)
		for r := 0; r < cfg.P; r++ {
			colGroup[r] = (ownerRow+r)%cfg.P + ownerCol*cfg.P
		}
		rowGroup := make([]int, cfg.Q)
		for c := 0; c < cfg.Q; c++ {
			rowGroup[c] = ownerRow + ((ownerCol+c)%cfg.Q)*cfg.P
		}

		// Panel factorisation: local DGETF2 work plus one pivot
		// reduction per panel column.
		panelCompute := m.PanelFactorTimeOn(1, mloc, jb)
		pivotComm := float64(jb) * allreduceSmall(colGroup)
		// Panel broadcast along the process row.
		panelBytes := float64(mloc) * float64(jb) * 8
		panelBcast := bcast(rowGroup, panelBytes, ranksPerNode)

		var swapComm, uBcast, trsm, update float64
		if nrem > 0 {
			// Pivot-row exchange along the process column (pairwise) and
			// the U-block broadcast down the column.
			swapBytes := float64(jb) * float64(nlocU) * 8
			swapComm = 2 * transfer(colGroup[0], colGroup[len(colGroup)/2], swapBytes, ranksPerNode)
			uBcast = bcast(colGroup, swapBytes, ranksPerNode)
			trsm = m.TRSMTimeOn(1, jb, nlocU)
			update = m.DGEMMTimeOn(1, mlocU, nlocU, jb)
		}

		iterCompute := panelCompute + trsm + update
		iterComm := pivotComm + panelBcast + swapComm + uBcast
		var iter float64
		if cfg.Lookahead && k > 0 {
			// Depth-1 lookahead: the panel chain of this iteration was
			// overlapped with the previous update; the exposed time is
			// whichever is longer, plus the unhidden swap/U phase.
			hidden := panelCompute + pivotComm + panelBcast
			exposed := trsm + update
			iter = math.Max(hidden, exposed) + swapComm + uBcast
		} else {
			iter = iterCompute + iterComm
		}
		total += iter
		compute += iterCompute
		comm += iterComm
	}

	flops := FactorFlops(cfg.N)
	peak := float64(cfg.Nodes) * m.PeakNodeFlops()
	return Result{
		N: cfg.N, NB: cfg.NB, Nodes: cfg.Nodes, P: cfg.P, Q: cfg.Q,
		Seconds:        total,
		GFlops:         flops / total / 1e9,
		Efficiency:     flops / total / peak,
		ComputeSeconds: compute,
		CommSeconds:    comm,
	}, nil
}

// RunStats aggregates repeated modelled runs with the measured run-to-run
// variability (the paper reports means +- standard deviations over 10
// repetitions).
type RunStats struct {
	// Base is the noise-free modelled run.
	Base Result
	// MeanSeconds/StdSeconds and MeanGFlops/StdGFlops summarise the
	// jittered repetitions.
	MeanSeconds, StdSeconds float64
	MeanGFlops, StdGFlops   float64
	// Samples are the per-repetition wall times.
	Samples []float64
}

// runJitterStd is the relative run-to-run variability of wall time
// (the paper's 10-run standard deviations sit at 2-4 % of the mean).
const runJitterStd = 0.028

// Repeat models reps repetitions of a run with deterministic pseudo-random
// jitter drawn from the named RNG stream.
func Repeat(cfg Config, reps int, rng *sim.RNG, stream string) (RunStats, error) {
	if reps <= 0 {
		return RunStats{}, fmt.Errorf("hpl: repetitions must be positive, got %d", reps)
	}
	if rng == nil {
		return RunStats{}, fmt.Errorf("hpl: nil rng")
	}
	base, err := Simulate(cfg)
	if err != nil {
		return RunStats{}, err
	}
	stats := RunStats{Base: base, Samples: make([]float64, 0, reps)}
	var sumT, sumT2, sumG, sumG2 float64
	for i := 0; i < reps; i++ {
		jitter := 1 + rng.Normal(stream, 0, runJitterStd)
		if jitter < 0.5 {
			jitter = 0.5
		}
		t := base.Seconds * jitter
		g := FactorFlops(cfg.N) / t / 1e9
		stats.Samples = append(stats.Samples, t)
		sumT += t
		sumT2 += t * t
		sumG += g
		sumG2 += g * g
	}
	n := float64(reps)
	stats.MeanSeconds = sumT / n
	stats.MeanGFlops = sumG / n
	stats.StdSeconds = math.Sqrt(math.Max(0, sumT2/n-stats.MeanSeconds*stats.MeanSeconds))
	stats.StdGFlops = math.Sqrt(math.Max(0, sumG2/n-stats.MeanGFlops*stats.MeanGFlops))
	return stats, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
