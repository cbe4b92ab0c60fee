package sched

import "sort"

// bestFitPolicy treats the idle nodes×time rectangle in front of the
// blocked head's shadow time as a packing strip, after the two-bar-charts
// packing literature (Erzin et al., "A 3/2-approximation for big two-bar
// charts packing", arXiv:2006.10361, and "Approximation Algorithms for
// Two-Bar Charts Packing Problem", arXiv:2106.09919): each job is a bar of
// width Spec.Nodes and length TimeLimit, and the packing heuristics there
// place the big bars first because small bars fill remaining gaps far more
// easily than the reverse.
//
// Concretely: queue priority stays submission order, so the oldest pending
// job always owns the EASY reservation and can never starve; behind it,
// backfill candidates are tried widest first (ties: longest first), which
// co-schedules the jobs that are hardest to place and leaves narrow short
// jobs to plug what remains. Host selection splits the idle set into two
// shelves, echoing the big/small bar split of the papers: big jobs (at
// least half the free strip) allocate from the head of the partition,
// small ones from the tail.
type bestFitPolicy struct{ fifoPolicy }

// BestFit returns the strip-packing-informed best-fit policy.
func BestFit() Policy { return bestFitPolicy{} }

func (bestFitPolicy) Name() string { return "bestfit" }

func (bestFitPolicy) Backfill() bool { return true }

func (bestFitPolicy) BackfillOrder(cands []*Job) []*Job {
	out := append([]*Job(nil), cands...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Spec.Nodes != out[j].Spec.Nodes {
			return out[i].Spec.Nodes > out[j].Spec.Nodes
		}
		return out[i].Spec.TimeLimit > out[j].Spec.TimeLimit
	})
	return out
}

func (bestFitPolicy) PickHosts(free IdleSet, job *Job) []int {
	n := job.Spec.Nodes
	if 2*n >= free.Len() {
		return free.First(n)
	}
	return free.Last(n)
}
