package soc

import (
	"fmt"
	"math"
)

// This file contains the analytical kernel-time laws used by the benchmark
// drivers. Times are in seconds of virtual machine time.

// DGEMMFlops returns the floating-point operation count of an m x n x k
// general matrix multiply-accumulate (C += A*B).
func DGEMMFlops(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}

// DGEMMTime models the execution time of an m x n x k dgemm spread over all
// cores of the node. Large blocked multiplies run at DGEMMEfficiency of the
// node's FPU peak; small or skinny shapes degrade towards PanelEfficiency
// because blocking cannot amortise memory traffic.
func (m *Machine) DGEMMTime(rows, cols, inner int) float64 {
	return m.DGEMMTimeOn(m.Cores, rows, cols, inner)
}

// DGEMMTimeOn is DGEMMTime restricted to a subset of cores (an MPI rank
// owning a single core uses cores = 1).
func (m *Machine) DGEMMTimeOn(cores, rows, cols, inner int) float64 {
	if rows <= 0 || cols <= 0 || inner <= 0 || cores <= 0 {
		return 0
	}
	flops := DGEMMFlops(rows, cols, inner)
	eff := m.DGEMMEfficiency * m.shapeFactor(rows, cols, inner)
	return flops / (float64(cores) * m.PeakFlopsPerCore * eff)
}

// shapeFactor penalises skinny multiplies: the efficiency of a blocked
// dgemm falls when the smallest dimension drops below the blocking size the
// unoptimised BLAS uses (~64 on the in-order U74).
func (m *Machine) shapeFactor(rows, cols, inner int) float64 {
	minDim := float64(rows)
	if float64(cols) < minDim {
		minDim = float64(cols)
	}
	if float64(inner) < minDim {
		minDim = float64(inner)
	}
	const kneeDim = 64.0
	if minDim >= kneeDim {
		return 1.0
	}
	// Linear ramp from the memory-bound panel regime up to full blocking.
	low := m.PanelEfficiency / m.DGEMMEfficiency
	return low + (1.0-low)*(minDim/kneeDim)
}

// PanelFactorTime models the time of an unblocked partially-pivoted panel
// factorisation (DGETF2) of a tall rows x nb panel. The kernel is
// memory-latency bound on the in-order cores, captured by PanelEfficiency.
func (m *Machine) PanelFactorTime(rows, nb int) float64 {
	return m.PanelFactorTimeOn(m.Cores, rows, nb)
}

// PanelFactorTimeOn is PanelFactorTime restricted to a subset of cores.
func (m *Machine) PanelFactorTimeOn(cores, rows, nb int) float64 {
	if rows <= 0 || nb <= 0 || cores <= 0 {
		return 0
	}
	// DGETF2 flop count for an r x nb panel: sum over columns of the
	// rank-1 updates, ~ r*nb^2 - nb^3/3.
	r, b := float64(rows), float64(nb)
	flops := r*b*b - b*b*b/3
	if flops <= 0 {
		flops = r * b
	}
	return flops / (float64(cores) * m.PeakFlopsPerCore * m.PanelEfficiency)
}

// TRSMTime models a triangular solve with nb right-hand sides against an
// nb x nb unit-lower-triangular block, applied to an nb x cols slab.
func (m *Machine) TRSMTime(nb, cols int) float64 {
	return m.TRSMTimeOn(m.Cores, nb, cols)
}

// TRSMTimeOn is TRSMTime restricted to a subset of cores.
func (m *Machine) TRSMTimeOn(cores, nb, cols int) float64 {
	if nb <= 0 || cols <= 0 || cores <= 0 {
		return 0
	}
	flops := float64(nb) * float64(nb) * float64(cols)
	eff := m.DGEMMEfficiency * m.shapeFactor(nb, cols, nb)
	return flops / (float64(cores) * m.PeakFlopsPerCore * eff)
}

// StreamOptions captures the tuning state of a STREAM run; the defaults
// reproduce the paper's upstream, unmodified benchmark.
type StreamOptions struct {
	// Threads is the number of OpenMP threads (paper: one per core).
	Threads int
	// PrefetchUtilisation in [0,1] scales the prefetcher's contribution on
	// top of the measured baseline towards PrefetchHeadroom. The measured
	// upstream state corresponds to 0.
	PrefetchUtilisation float64
	// Bitmanip reports whether the toolchain emits Zba/Zbb addressing
	// sequences (GCC 12 + binutils 2.37); it trims index-arithmetic
	// overhead on the in-order cores.
	Bitmanip bool
	// LargeCodeModel lifts the medany +-2 GiB static-data cap via the
	// vendor's large-code-model workaround.
	LargeCodeModel bool
}

// normalise applies defaults.
func (o StreamOptions) normalise(m *Machine) StreamOptions {
	if o.Threads <= 0 {
		o.Threads = m.Cores
	}
	if o.PrefetchUtilisation < 0 {
		o.PrefetchUtilisation = 0
	}
	if o.PrefetchUtilisation > 1 {
		o.PrefetchUtilisation = 1
	}
	return o
}

// MaxStreamArrayBytes returns the largest per-array STREAM allocation the
// toolchain permits: upstream STREAM uses three statically sized arrays in
// one translation unit, so the medany code model caps their *sum* at 2 GiB
// unless the large-code-model workaround is applied.
func (m *Machine) MaxStreamArrayBytes(opts StreamOptions) int64 {
	if m.MaxStaticDataBytes == 0 || opts.LargeCodeModel {
		return math.MaxInt64
	}
	return m.MaxStaticDataBytes / 3
}

// sustainedDDRBandwidth returns the modelled DDR-resident bandwidth for a
// kernel in bytes/s.
func (m *Machine) sustainedDDRBandwidth(k StreamKernel, opts StreamOptions) float64 {
	opts = opts.normalise(m)
	base := m.StreamDDRBase * m.StreamKernelShape[k]
	// Prefetcher contribution: latent headroom scaled by utilisation.
	eff := base + m.PrefetchHeadroom*opts.PrefetchUtilisation*m.StreamKernelShape[k]
	if opts.Bitmanip && !m.BitmanipEmitted {
		// Zba sh*add addressing removes a dependent ALU op per element on
		// the dual-issue in-order pipe; small but measurable gain.
		eff *= 1.06
	}
	// Thread scaling: a single in-order core cannot cover DRAM latency by
	// itself; concurrency saturates by ~4 threads.
	frac := float64(opts.Threads) / float64(m.Cores)
	if frac > 1 {
		frac = 1
	}
	scale := frac * (2 - frac) // concave ramp, 1.0 at full threads
	bw := m.PeakDDRBandwidth * eff * scale
	if bw > m.PeakDDRBandwidth {
		bw = m.PeakDDRBandwidth
	}
	return bw
}

// StreamBandwidth returns the modelled sustained bandwidth (bytes/s) for a
// kernel over a working set of the given total bytes. Sets that fit in L2
// run at the measured L2 bandwidths; DDR-resident sets at the DDR law.
func (m *Machine) StreamBandwidth(k StreamKernel, workingSetBytes int64, opts StreamOptions) (float64, error) {
	if k < StreamCopy || k > StreamTriad {
		return 0, fmt.Errorf("soc: unknown stream kernel %d", int(k))
	}
	if workingSetBytes <= 0 {
		return 0, fmt.Errorf("soc: working set must be positive, got %d", workingSetBytes)
	}
	opts = opts.normalise(m)
	if workingSetBytes <= m.L2Bytes {
		bw := m.StreamL2Bandwidth[k]
		// L2-resident runs are compute-limited, not concurrency-limited;
		// scale roughly linearly with threads.
		return bw * float64(opts.Threads) / float64(m.Cores), nil
	}
	return m.sustainedDDRBandwidth(k, opts), nil
}
