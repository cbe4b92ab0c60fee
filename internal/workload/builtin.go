package workload

import (
	"fmt"

	"montecimone/internal/hpl"
	"montecimone/internal/mpi"
	"montecimone/internal/netsim"
	"montecimone/internal/power"
	"montecimone/internal/qe"
	"montecimone/internal/stream"
)

// Reference problem sizes of the paper's evaluation runs (Section V): the
// HPL.dat order and block of the 8-node run and the LAX matrix order.
const (
	refHPLN  = 40704
	refHPLNB = 192
	refQEN   = 512
)

// Resident-set footprints per node, matching the paper's benchmark
// configurations (HPL N=40704 doubles over 8 nodes plus buffers; STREAM's
// three arrays; the LAX work arrays).
const (
	hplMemBytes    = 13.3e9
	streamMemBytes = 2.1e9
	qeMemBytes     = 0.4e9
	mpiMemBytes    = 0.1e9
)

// The built-in catalogue: the Table VI workload columns plus the MPI
// ping-pong microbenchmark. Registered at package init so every consumer
// (scheduler, campaign engine, CLIs) sees the same set.
func init() {
	mustRegister(hplModel())
	mustRegister(streamModel("stream.ddr", power.ActivityStreamDDR, stream.DDRWorkingSetBytes))
	mustRegister(streamModel("stream.l2", power.ActivityStreamL2, stream.L2WorkingSetBytes))
	mustRegister(qeModel())
	mustRegister(mpiPingPongModel())
	mustRegister(&Model{Name: "idle", Steady: power.ActivityIdle})
}

// hplModel is the HPL benchmark at the paper's N=40704, NB=192. The phase
// cycle follows the blocked LU iteration — panel factorisation (partial
// FPU utilisation, pivot reductions), panel/U broadcast (communication
// bound, cores near idle) and the trailing DGEMM update (the FPU- and
// cache-hot bulk of the run). The durations give the update ~70 % of the
// cycle, and the time-weighted mean activity reproduces the calibrated
// Table VI HPL column within ~1 %.
func hplModel() *Model {
	return &Model{
		Name:     "hpl",
		Steady:   power.ActivityHPL,
		MemBytes: hplMemBytes,
		Phases: []Phase{
			{Name: "panel", Seconds: 6,
				Activity: power.Activity{CoreActivity: 0.35, DDRReadGBs: 0.60, DDRWriteGBs: 0.10, L2GBs: 6.0, PCIeActivity: 0.02}},
			{Name: "bcast", Seconds: 3,
				Activity: power.Activity{CoreActivity: 0.05, DDRReadGBs: 0.20, DDRWriteGBs: 0.05, L2GBs: 1.0, PCIeActivity: 0.02}},
			{Name: "update", Seconds: 21,
				Activity: power.Activity{CoreActivity: 0.56, DDRReadGBs: 0.95, DDRWriteGBs: 0.11, L2GBs: 9.6, PCIeActivity: 0.02}},
		},
		Runtime: func(nodes int) (float64, error) {
			r, err := hpl.Simulate(hpl.Config{N: refHPLN, NB: refHPLNB, Nodes: nodes})
			if err != nil {
				return 0, err
			}
			return r.Seconds, nil
		},
	}
}

// streamModel builds one of the two STREAM dataset models. STREAM is a
// single-phase workload — the four kernels stress the same memory system —
// so the model runs at its Table V activity with no transitions. The
// runtime estimate walks the benchmark's own structure: NTIMES=10
// repetitions of copy/scale/add/triad over the working set at the
// calibrated per-kernel bandwidth; node count does not change it (STREAM
// is per-node, campaigns run one rank set per node).
func streamModel(name string, act power.Activity, workingSet int64) *Model {
	const ntimes = 10 // STREAM v5.10 default repetition count
	runtime := func(int) (float64, error) {
		res, err := stream.Run(stream.Config{WorkingSetBytes: workingSet})
		if err != nil {
			return 0, err
		}
		elems := workingSet / 3 / 8
		total := 0.0
		for _, r := range res {
			bytes := float64(elems) * float64(stream.BytesPerElement(r.Kernel))
			total += ntimes * bytes / (r.MeanMBps * 1e6)
		}
		return total, nil
	}
	return &Model{
		Name:     name,
		Steady:   act,
		MemBytes: streamMemBytes,
		Runtime:  runtime,
	}
}

// qeModel is the quantumESPRESSO LAX driver on a 512^2 matrix. The phase
// cycle alternates the Householder tridiagonal reduction (bandwidth-heavy,
// modest FPU) with the QL eigenvector accumulation (the FPU-bound bulk);
// the 8 s / 12 s split reproduces the Table VI QE column exactly in the
// time-weighted mean.
func qeModel() *Model {
	return &Model{
		Name:     "qe",
		Steady:   power.ActivityQE,
		MemBytes: qeMemBytes,
		Phases: []Phase{
			{Name: "reduce", Seconds: 8,
				Activity: power.Activity{CoreActivity: 0.23, DDRReadGBs: 0.90, DDRWriteGBs: 0.15, L2GBs: 7.0, PCIeActivity: 0.10}},
			{Name: "eigen", Seconds: 12,
				Activity: power.Activity{CoreActivity: 0.415, DDRReadGBs: 0.65, DDRWriteGBs: 0.15, L2GBs: 9.5, PCIeActivity: 0.10}},
		},
		Runtime: func(nodes int) (float64, error) {
			r, err := qe.Run(qe.Config{N: refQEN, Nodes: nodes})
			if err != nil {
				return 0, err
			}
			return r.Seconds, nil
		},
	}
}

// mpiPingPongModel is the OSU-style point-to-point sweep over the GbE
// fabric: message sizes from 1 B to 1 MiB, 200 round trips each. Cores
// mostly wait on the NIC, so the activity is light; the profile is an
// estimate (the paper does not characterise its power). The runtime sums
// the MPI layer's ping-pong over a two-node fabric, so it follows the
// network model's transfer law.
func mpiPingPongModel() *Model {
	sweep := func() (elapsed float64, err error) {
		fabric, err := netsim.NewFabric(2, netsim.GigabitEthernet())
		if err != nil {
			return 0, err
		}
		const iters = 200
		for _, bytes := range []float64{1, 4096, 65536, 1 << 20} {
			res, err := mpi.PingPong(fabric, bytes, iters)
			if err != nil {
				return 0, err
			}
			elapsed += res.LatencySec * 2 * iters
		}
		return elapsed, nil
	}
	return &Model{
		Name:     "mpi.pingpong",
		Steady:   power.Activity{CoreActivity: 0.05, DDRReadGBs: 0.10, DDRWriteGBs: 0.10, L2GBs: 0.5, PCIeActivity: 0.05},
		MemBytes: mpiMemBytes,
		Runtime: func(nodes int) (float64, error) {
			if nodes < 2 {
				return 0, fmt.Errorf("workload: mpi.pingpong needs at least 2 nodes, got %d", nodes)
			}
			return sweep()
		},
	}
}
