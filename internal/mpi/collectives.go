package mpi

import (
	"fmt"
	"math"
)

// Collectives use a reserved tag space derived from a per-rank collective
// sequence number; SPMD programs call collectives in the same order on all
// ranks, so sequence numbers (and therefore tags) match across ranks.
const collectiveTagBase = -1 << 20

func (p *Proc) nextCollectiveTag() int {
	p.collSeq++
	return collectiveTagBase - p.collSeq
}

// ReduceOp combines two equally sized payloads element-wise into the first.
type ReduceOp func(acc, in []float64)

// OpSum accumulates element-wise sums.
func OpSum(acc, in []float64) {
	for i := range acc {
		acc[i] += in[i]
	}
}

// OpMaxAbsLoc treats the payload as (value, index) pairs and keeps the pair
// with the largest absolute value — the HPL pivot-search reduction. Ties
// resolve to the lower index, matching partial pivoting determinism.
func OpMaxAbsLoc(acc, in []float64) {
	for i := 0; i+1 < len(acc); i += 2 {
		av, iv := math.Abs(acc[i]), math.Abs(in[i])
		if iv > av || (iv == av && in[i+1] < acc[i+1]) {
			acc[i], acc[i+1] = in[i], in[i+1]
		}
	}
}

// Bcast broadcasts from root over a binomial tree. On the root, data/bytes
// describe the payload; on other ranks the received payload is returned.
// All ranks receive the same byte count. Returns the payload (root's data).
func (p *Proc) Bcast(root int, data []float64, bytes float64) ([]float64, error) {
	size := p.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	tag := p.nextCollectiveTag()
	if size == 1 {
		return data, nil
	}
	if bytes < 0 {
		bytes = 8 * float64(len(data))
	}
	rel := (p.rank - root + size) % size

	// Receive from parent (non-root ranks).
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			parent := ((rel &^ mask) + root) % size
			msg, err := p.Recv(parent, tag)
			if err != nil {
				return nil, err
			}
			data = msg.Data
			bytes = msg.Bytes
			break
		}
		mask <<= 1
	}
	// Forward to children.
	mask >>= 1
	for mask > 0 {
		if rel&mask == 0 && rel+mask < size {
			dst := ((rel + mask) + root) % size
			if err := p.Send(dst, tag, data, bytes); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// Reduce combines payloads from all ranks onto root over a binomial tree.
// Every rank must pass a payload of identical length; the reduced slice is
// returned on the root (other ranks receive nil). The input is not
// modified.
func (p *Proc) Reduce(root int, op ReduceOp, data []float64, bytes float64) ([]float64, error) {
	size := p.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: reduce root %d out of range", root)
	}
	tag := p.nextCollectiveTag()
	acc := append([]float64(nil), data...)
	if bytes < 0 {
		bytes = 8 * float64(len(data))
	}
	if size == 1 {
		return acc, nil
	}
	rel := (p.rank - root + size) % size
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			parent := ((rel &^ mask) + root) % size
			if err := p.Send(parent, tag, acc, bytes); err != nil {
				return nil, err
			}
			return nil, nil
		}
		if peer := rel | mask; peer < size {
			src := (peer + root) % size
			msg, err := p.Recv(src, tag)
			if err != nil {
				return nil, err
			}
			if msg.Data != nil && acc != nil {
				if len(msg.Data) != len(acc) {
					return nil, fmt.Errorf("mpi: reduce payload length mismatch: %d vs %d", len(msg.Data), len(acc))
				}
				op(acc, msg.Data)
			}
		}
	}
	return acc, nil
}

// Allreduce reduces to rank 0 and broadcasts the result back; every rank
// returns the combined payload.
func (p *Proc) Allreduce(op ReduceOp, data []float64, bytes float64) ([]float64, error) {
	if bytes < 0 {
		bytes = 8 * float64(len(data))
	}
	reduced, err := p.Reduce(0, op, data, bytes)
	if err != nil {
		return nil, err
	}
	return p.Bcast(0, reduced, bytes)
}

// Barrier synchronises all ranks (an 8-byte allreduce).
func (p *Proc) Barrier() error {
	_, err := p.Allreduce(OpSum, []float64{0}, 8)
	return err
}

// Gather collects equally sized payloads onto root, concatenated by rank.
// Non-root ranks return nil.
func (p *Proc) Gather(root int, data []float64, bytes float64) ([][]float64, error) {
	size := p.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: gather root %d out of range", root)
	}
	tag := p.nextCollectiveTag()
	if bytes < 0 {
		bytes = 8 * float64(len(data))
	}
	if p.rank != root {
		return nil, p.Send(root, tag, data, bytes)
	}
	out := make([][]float64, size)
	out[root] = append([]float64(nil), data...)
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		msg, err := p.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = msg.Data
	}
	return out, nil
}
