package sched

// fifoPolicy runs jobs strictly in submission order with no backfill: the
// queue head blocks everything behind it until it fits. This is the
// scheduler the paper's campaign would see with SLURM's backfill plugin
// disabled, and the baseline the EASY ablation compares against.
type fifoPolicy struct{}

// FIFO returns the first-in-first-out policy without backfill.
func FIFO() Policy { return fifoPolicy{} }

func (fifoPolicy) Name() string { return "fifo" }

func (fifoPolicy) Less(a, b *Job) bool { return false }

func (fifoPolicy) Backfill() bool { return false }

func (fifoPolicy) BackfillOrder(cands []*Job) []*Job { return cands }

func (fifoPolicy) PickHosts(free IdleSet, job *Job) []int {
	return free.First(job.Spec.Nodes)
}
