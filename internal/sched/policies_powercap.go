package sched

import "sort"

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

// PickHosts allocates the coolest idle nodes first (ties keep partition
// order via the stable sort). Each idle node's temperature is read once,
// in partition order and not inside the comparator: a read integrates the
// node and may fire its halt, whose NodeDown shifts the scheduler's idle
// slice, so free is copied before the first read.
func (p *powercapPolicy) PickHosts(free []int, job *Job) []int {
	if p.advisor == nil {
		return free[:job.Spec.Nodes]
	}
	type nodeTemp struct {
		node  int
		tempC float64
	}
	byTemp := make([]nodeTemp, len(free))
	for k, i := range free {
		byTemp[k].node = i
	}
	for k := range byTemp {
		byTemp[k].tempC = p.advisor.NodeTempC(byTemp[k].node)
	}
	sort.SliceStable(byTemp, func(a, b int) bool { return byTemp[a].tempC < byTemp[b].tempC })
	picked := make([]int, job.Spec.Nodes)
	for k := range picked {
		picked[k] = byTemp[k].node
	}
	return picked
}
