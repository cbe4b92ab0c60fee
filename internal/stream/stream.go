// Package stream models the STREAM memory-bandwidth benchmark (McCalpin,
// v5.10) used in Section V-A: a calibrated bandwidth model of its four
// kernels (copy, scale, add, triad) that regenerates Table V — the
// DDR-resident and L2-resident runs on the Monte Cimone node — and the
// cross-machine efficiency comparison.
//
// The upstream benchmark's working set is capped by the RV64 medany code
// model: the three statically allocated arrays must stay within +-2 GiB of
// pc, which is exactly why the paper's large run uses a 1945.5 MiB set.
package stream

import (
	"fmt"
	"math"

	"montecimone/internal/sim"
	"montecimone/internal/soc"
)

// BytesPerElement gives each kernel's memory traffic per index (loads plus
// stores of 8-byte doubles), as STREAM accounts bandwidth.
func BytesPerElement(k soc.StreamKernel) int {
	switch k {
	case soc.StreamCopy, soc.StreamScale:
		return 16
	case soc.StreamAdd, soc.StreamTriad:
		return 24
	default:
		return 0
	}
}

// Config describes a modelled STREAM run.
type Config struct {
	// Machine is the node model (default soc.FU740()).
	Machine *soc.Machine
	// WorkingSetBytes is the total footprint of the three arrays (the
	// dataset size labels of Table V: 1945.5 MiB and 1.1 MiB).
	WorkingSetBytes int64
	// Opts carries thread count and toolchain knobs.
	Opts soc.StreamOptions
	// Reps is the repetition count for mean +- std (default 10).
	Reps int
	// RNG drives the run-to-run jitter; nil disables noise.
	RNG *sim.RNG
}

// Result is one kernel's modelled outcome.
type Result struct {
	// Kernel identifies the row.
	Kernel soc.StreamKernel
	// MeanMBps and StdMBps are the reported bandwidth statistics in
	// STREAM's MB/s (1e6 bytes per second).
	MeanMBps, StdMBps float64
	// EfficiencyOfPeak is MeanMBps relative to the machine's peak DDR
	// bandwidth.
	EfficiencyOfPeak float64
}

// measurementJitter is the relative sample noise of Table V (the reported
// standard deviations are a few tenths of a percent).
const measurementJitter = 0.003

// ErrCodeModel reports a working set rejected by the medany code model.
type ErrCodeModel struct {
	// Requested and Limit are per-array byte sizes.
	Requested, Limit int64
}

// Error describes the linker failure the oversized static arrays provoke.
func (e *ErrCodeModel) Error() string {
	return fmt.Sprintf("stream: static array of %d bytes exceeds the medany code model limit of %d bytes per array (relocation truncated: symbol out of +-2 GiB range)",
		e.Requested, e.Limit)
}

// Run models a STREAM execution, returning one result per kernel in
// Table V order.
func Run(cfg Config) ([]Result, error) {
	machine := cfg.Machine
	if machine == nil {
		machine = soc.FU740()
	}
	if cfg.WorkingSetBytes <= 0 {
		return nil, fmt.Errorf("stream: working set must be positive, got %d", cfg.WorkingSetBytes)
	}
	perArray := cfg.WorkingSetBytes / 3
	if limit := machine.MaxStreamArrayBytes(cfg.Opts); perArray > limit {
		return nil, &ErrCodeModel{Requested: perArray, Limit: limit}
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 10
	}
	results := make([]Result, 0, len(soc.StreamKernels))
	for _, k := range soc.StreamKernels {
		bw, err := machine.StreamBandwidth(k, cfg.WorkingSetBytes, cfg.Opts)
		if err != nil {
			return nil, err
		}
		base := bw / 1e6
		var sum, sum2 float64
		for i := 0; i < reps; i++ {
			sample := base
			if cfg.RNG != nil {
				sample = base * (1 + cfg.RNG.Normal("stream."+k.String(), 0, measurementJitter))
			}
			sum += sample
			sum2 += sample * sample
		}
		mean := sum / float64(reps)
		std := math.Sqrt(math.Max(0, sum2/float64(reps)-mean*mean))
		results = append(results, Result{
			Kernel:           k,
			MeanMBps:         mean,
			StdMBps:          std,
			EfficiencyOfPeak: mean * 1e6 / machine.PeakDDRBandwidth,
		})
	}
	return results, nil
}

// Table V dataset sizes.
const (
	// DDRWorkingSetBytes is the paper's large set: 1945.5 MiB exactly —
	// the biggest footprint that still links under the 2 GiB medany cap.
	DDRWorkingSetBytes = int64(2_040_004_608)
	// L2WorkingSetBytes is the paper's cache-resident set: 1.1 MiB
	// (rounded to whole doubles).
	L2WorkingSetBytes = int64(1_153_432)
)
