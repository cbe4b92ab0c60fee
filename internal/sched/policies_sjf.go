package sched

// sjfPolicy orders the queue by requested wall-time limit, shortest first
// (the scheduler cannot know true durations, so the user-declared limit is
// the estimate, as in real SJF batch systems). Ties keep submission order.
// Backfill stays on, with candidates likewise tried shortest first, which
// drives mean wait time down at the cost of delaying long jobs.
type sjfPolicy struct{}

// SJF returns the shortest-job-first policy.
func SJF() Policy { return sjfPolicy{} }

func (sjfPolicy) Name() string { return "sjf" }

func (sjfPolicy) Less(a, b *Job) bool { return a.Spec.TimeLimit < b.Spec.TimeLimit }

func (sjfPolicy) Backfill() bool { return true }

// BackfillOrder keeps the queue order: cands already arrive shortest
// first.
func (sjfPolicy) BackfillOrder(cands []*Job) []*Job { return cands }

func (sjfPolicy) PickHosts(free IdleSet, job *Job) []int {
	return free.First(job.Spec.Nodes)
}
