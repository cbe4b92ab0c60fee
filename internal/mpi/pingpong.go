package mpi

import "fmt"

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

// PingPong runs an OSU-style ping-pong between rank 0 and rank 1 from
// within a World.Run function; call it on every rank (ranks other than 0
// and 1 return a zero result). The returned timing on rank 0 validates the
// fabric model's latency/bandwidth parameters end to end through the MPI
// stack.
func PingPong(p *Proc, bytes float64, iterations int) (PingPongResult, error) {
	if p.Size() < 2 {
		return PingPongResult{}, fmt.Errorf("mpi: ping-pong needs at least 2 ranks")
	}
	if bytes < 0 || iterations <= 0 {
		return PingPongResult{}, fmt.Errorf("mpi: ping-pong needs non-negative size and positive iterations")
	}
	const tag = 7777
	switch p.Rank() {
	case 0:
		start := p.Now()
		for i := 0; i < iterations; i++ {
			if err := p.Send(1, tag, bytes); err != nil {
				return PingPongResult{}, err
			}
			if _, err := p.Recv(1, tag); err != nil {
				return PingPongResult{}, err
			}
		}
		elapsed := p.Now() - start
		oneWay := elapsed / float64(2*iterations)
		res := PingPongResult{Bytes: bytes, Iterations: iterations, LatencySec: oneWay}
		if oneWay > 0 {
			res.BandwidthBps = bytes / oneWay
		}
		return res, nil
	case 1:
		for i := 0; i < iterations; i++ {
			if _, err := p.Recv(0, tag); err != nil {
				return PingPongResult{}, err
			}
			if err := p.Send(0, tag, bytes); err != nil {
				return PingPongResult{}, err
			}
		}
		return PingPongResult{}, nil
	default:
		return PingPongResult{}, nil
	}
}
