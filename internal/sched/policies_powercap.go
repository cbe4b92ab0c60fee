package sched

import (
	"cmp"
	"slices"
)

// powercapPolicy closes the power-management loop at the scheduling
// layer: jobs start in submission order, but a job whose predicted draw
// (rail model at its workload model's steady activity) would exceed the
// cluster power budget's headroom is delayed until running work finishes
// or the power plane reports headroom again, and allocations prefer the
// coolest idle nodes so new load lands where the thermal margin is
// largest.
//
// Fairness: the queue keeps submission order and no backfill runs behind
// a power-blocked head, so later jobs cannot overtake it and pin the
// budget; and a blocked head is force-admitted once nothing is running
// (measured draw then converges to the idle floor, which is the best the
// cluster can offer). Every job therefore eventually starts on a finite
// workload — the policy conformance suite exercises exactly this.
//
// Without an advisor (no power plane configured) the policy degrades to
// plain FIFO, which keeps it usable in the conformance harness and in
// partitions that opt out of power management.
type powercapPolicy struct {
	fifoPolicy
	advisor PowerAdvisor
	idle    []int      // PickHosts scratch: the idle set before the reads
	cands   []nodeTemp // PickHosts scratch: idle nodes and their temperatures
}

// PowerCap returns the power-budget-aware policy. Wire the power plane in
// with WithPowerAdvisor; without it the policy behaves like FIFO.
func PowerCap() Policy { return &powercapPolicy{} }

func (*powercapPolicy) Name() string { return "powercap" }

// SetAdvisor implements PowerAwarePolicy.
func (p *powercapPolicy) SetAdvisor(a PowerAdvisor) { p.advisor = a }

// Admit implements the admission gate: the job's predicted incremental
// draw must fit in the current headroom, unless the cluster is idle (the
// forced-progress rule).
func (p *powercapPolicy) Admit(job *Job, runningJobs int) bool {
	if p.advisor == nil || runningJobs == 0 {
		return true
	}
	predicted := p.advisor.PredictedJobWatts(job.Spec.Activity(), job.Spec.Nodes)
	return predicted <= p.advisor.HeadroomWatts()
}

// PickHosts allocates the k coolest idle nodes, coolest first, ordered by
// (temperature, partition index): for finite temperatures, the order a
// stable sort by temperature over the ascending idle set gives. Each idle
// node's temperature is read once, in partition order and not inside a
// comparison. A read integrates the node and may fire its halt, whose
// NodeDown edits the idle set, so the idle indexes are copied before the
// first read and the nodes that went down are skipped after the last.
// When fewer than k remain, the job does not fit now and PickHosts
// returns nil.
func (p *powercapPolicy) PickHosts(free IdleSet, job *Job) []int {
	k := job.Spec.Nodes
	if p.advisor == nil {
		return free.First(k)
	}
	p.idle = free.AppendAll(p.idle[:0])
	cands := p.cands[:0]
	for _, i := range p.idle {
		cands = append(cands, nodeTemp{node: i, tempC: p.advisor.NodeTempC(i)})
	}
	p.cands = cands
	up := cands[:0]
	for _, c := range cands {
		if free.Has(c.node) {
			up = append(up, c)
		}
	}
	if len(up) < k {
		return nil
	}
	slices.SortFunc(up, coolerFirst)
	picked := make([]int, k)
	for j := range picked {
		picked[j] = up[j].node
	}
	return picked
}

// nodeTemp is one idle node and its temperature at placement.
type nodeTemp struct {
	node  int
	tempC float64
}

// coolerFirst orders placements by (temperature, partition index).
func coolerFirst(a, b nodeTemp) int {
	if c := cmp.Compare(a.tempC, b.tempC); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}
