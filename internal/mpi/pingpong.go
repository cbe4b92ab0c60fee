// Package mpi models the point-to-point path of the OpenMPI deployment
// the paper uses, in virtual time over the netsim fabric models: an
// OSU-style ping-pong between one rank on node 0 and one on node 1.
//
// Every message costs the MPI stack's software overhead plus the fabric's
// alpha-beta transfer time, and each reply leaves the moment its message
// arrives. The ping-pong is therefore a closed form: PingPong walks the
// arrival times of its 2 × iterations messages one addition at a time,
// the exact float sequence of rank 0's clock in a message-passing run.
//
// The package schedules no engine events and starts no goroutines. Its
// timings reach the engine only through the mpi.pingpong workload's
// runtime estimate.
package mpi

import (
	"fmt"

	"montecimone/internal/netsim"
)

// sendOverheadSec is the per-message software overhead of the MPI stack.
const sendOverheadSec = 2e-6

// PingPongResult is the outcome of an OSU-style point-to-point
// microbenchmark between two ranks.
type PingPongResult struct {
	// Bytes is the message size; Iterations the round-trip count.
	Bytes      float64
	Iterations int
	// LatencySec is the measured one-way latency (half the mean round
	// trip); BandwidthBps the payload bandwidth at this size.
	LatencySec   float64
	BandwidthBps float64
}

// PingPong runs an OSU-style ping-pong of iterations round trips of a
// bytes-sized message between fabric nodes 0 and 1, one rank on each.
// The timing validates the fabric model's latency/bandwidth parameters
// end to end through the MPI stack's per-message overhead.
func PingPong(fabric *netsim.Fabric, bytes float64, iterations int) (PingPongResult, error) {
	if fabric == nil {
		return PingPongResult{}, fmt.Errorf("mpi: nil fabric")
	}
	if bytes < 0 || iterations <= 0 {
		return PingPongResult{}, fmt.Errorf("mpi: ping-pong needs non-negative size and positive iterations")
	}
	// The law is symmetric, so both directions take the same time.
	transfer, err := fabric.TransferTime(0, 1, bytes, 1)
	if err != nil {
		return PingPongResult{}, fmt.Errorf("mpi: ping-pong: %w", err)
	}
	// Each message departs when the previous one arrives. The sum keeps
	// the association (clock + overhead) + transfer of a sender's clock;
	// clock += overhead + transfer would round differently.
	clock := 0.0
	for i := 0; i < 2*iterations; i++ {
		clock = clock + sendOverheadSec + transfer
	}
	oneWay := clock / float64(2*iterations)
	res := PingPongResult{Bytes: bytes, Iterations: iterations, LatencySec: oneWay}
	if oneWay > 0 {
		res.BandwidthBps = bytes / oneWay
	}
	return res, nil
}
