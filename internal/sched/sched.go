// Package sched implements the SLURM-style batch scheduler ported to Monte
// Cimone (Section IV-A of the paper lists SLURM among the essential
// production services brought up on the cluster).
//
// The scheduler manages one partition of nodes, accepts batch jobs
// with node counts and wall-time limits, and reacts to node failures (the
// thermal halt of node 7 in the paper surfaces as a NODE_FAIL job state).
// sinfo/squeue/sacct-style views expose the state. All timing is driven by
// the shared discrete-event engine.
//
// Scheduling decisions are delegated to a pluggable Policy (see policy.go):
// the default EASY policy reproduces the production FIFO+EASY-backfill
// configuration, and FIFO, shortest-job-first and best-fit packing
// variants ship alongside it. The hot paths are indexed, so synthetic
// partitions far beyond the paper's eight nodes schedule without O(nodes)
// rescans per decision: the idle nodes are a bitset with a maintained
// count, which policies read through an in-order view (the first or last
// k idle nodes, or all of them). The scheduler keeps the rest of its state
// in order as it changes and reads it in place on every pass: the pending
// queue in the policy's priority order, and running jobs' releases in a
// slice sorted by release time.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/workload"
)

// JobState follows SLURM's job life cycle.
type JobState string

// Job states (a subset of SLURM's).
const (
	StatePending   JobState = "PENDING"
	StateRunning   JobState = "RUNNING"
	StateCompleted JobState = "COMPLETED"
	StateTimeout   JobState = "TIMEOUT"
	StateCancelled JobState = "CANCELLED"
	StateNodeFail  JobState = "NODE_FAIL"
)

// NodeState follows sinfo's node states.
type NodeState string

// Node states.
const (
	NodeIdle  NodeState = "idle"
	NodeAlloc NodeState = "alloc"
	NodeDown  NodeState = "down"
)

// JobSpec describes a batch submission.
type JobSpec struct {
	// Name is the job name (sbatch -J).
	Name string
	// User is the submitting user.
	User string
	// Nodes is the requested node count (sbatch -N).
	Nodes int
	// TimeLimit is the wall-time limit in seconds (sbatch -t), positive
	// and finite. The job's end, at most its start plus TimeLimit, must
	// be finite too.
	TimeLimit float64
	// Duration is the modelled execution time of the workload; the job
	// completes after this time or hits TimeLimit, whichever comes first.
	Duration float64
	// Requeue controls whether a NODE_FAIL puts the job back in the queue.
	Requeue bool
	// MaxRequeues bounds how many times a requeued job may return to the
	// queue after NODE_FAIL; 0 means unbounded (the pre-fault-campaign
	// behaviour, SLURM's default).
	MaxRequeues int
	// OnRequeue runs when a NODE_FAIL puts a clone of the job back in the
	// queue, before the clone is submitted: failed is the failed attempt,
	// next the clone's spec, which the callback may mutate (checkpoint /
	// restart models shorten next.Duration to the work remaining past the
	// last completed phase).
	OnRequeue func(failed *Job, next *JobSpec)
	// Workload is the job's first-class workload model from the registry
	// (workload.Lookup): power-aware policies predict the job's draw from
	// its steady activity profile before placing it, and campaign runners
	// drive the model's phase cycle on the allocated nodes. Nil means an
	// idle-like job with no incremental draw.
	Workload *workload.Model
	// OnStart runs when the job starts, with the allocated node indices.
	// The slice is the job's own and must not be modified.
	OnStart func(job *Job, nodes []int)
	// OnEnd runs when the job leaves the node set, with the final state.
	OnEnd func(job *Job, state JobState)
}

// Activity returns the steady activity profile power-aware policies
// predict with: the workload model's calibrated profile, or the idle zero
// value for jobs without a model.
func (s *JobSpec) Activity() power.Activity {
	if s.Workload == nil {
		return power.Activity{}
	}
	return s.Workload.Steady
}

// Job is a scheduled instance of a JobSpec.
type Job struct {
	// ID is the cluster-unique job id.
	ID int
	// Spec is the submission. The scheduler orders its queue and its
	// releases by it, so it must not change after Submit.
	Spec JobSpec

	state     JobState
	submitted float64
	started   float64
	ended     float64
	nodes     []int   // allocated partition indices
	attempt   int     // 0 for the original submission, +1 per requeue
	runScale  float64 // runtime stretch applied at start (0 until started)
	endEvent  sim.Handle
}

// State returns the job state.
func (j *Job) State() JobState { return j.state }

// Attempt returns the requeue generation: 0 for the original submission,
// incremented each time a NODE_FAIL clone re-enters the queue.
func (j *Job) Attempt() int { return j.attempt }

// RuntimeScale returns the runtime stretch the scheduler's runtime scaler
// applied when the job started (1 when no scaler is installed; 0 while the
// job has never started).
func (j *Job) RuntimeScale() float64 { return j.runScale }

// Nodes returns the allocated node indices (nil unless running or
// finished).
func (j *Job) Nodes() []int { return append([]int(nil), j.nodes...) }

// StartTime returns when the job started (0 if never started).
func (j *Job) StartTime() float64 { return j.started }

// EndTime returns when the job ended (0 if still queued/running).
func (j *Job) EndTime() float64 { return j.ended }

type nodeInfo struct {
	host  string // rendered in sinfo and job rows only
	state NodeState
	jobID int // running job, 0 if none
}

// Scheduler is the controller daemon (slurmctld).
type Scheduler struct {
	engine     *sim.Engine
	policy     Policy
	advisor    PowerAdvisor
	linearScan bool

	nodes    []nodeInfo // partition order: index i is cluster node i
	free     freeSet
	releases []release // running jobs, sorted by compareReleases
	queue    []*Job    // pending, in priority order (see enqueue)
	jobs     map[int]*Job
	nextID   int

	// runtimeScale, when installed (SetRuntimeScaler), stretches each
	// job's modelled execution time at start: fault campaigns return > 1
	// for allocations touching straggler nodes or degraded-network windows.
	runtimeScale func(job *Job, nodes []int) float64

	// The scheduling pass: its callback, built once, and whether a pass is
	// already scheduled at the current instant (see kick).
	cycleFn     func(*sim.Engine)
	passPending bool
	// orderScratch is the backfill pass's snapshot of the pending queue,
	// reused from pass to pass: it is consumed strictly within one
	// trySchedule call, which keeps the pass allocation-free.
	orderScratch []*Job
}

// New builds a scheduler over a partition of len(hostnames) nodes. Node
// index i, the identity every other method and callback uses, is cluster
// node i; hostnames[i] is only its label in sinfo and job rows. The
// default policy is EASY backfill, matching the production SLURM
// configuration.
func New(engine *sim.Engine, hostnames []string, opts ...Option) (*Scheduler, error) {
	if engine == nil {
		return nil, fmt.Errorf("sched: nil engine")
	}
	if len(hostnames) == 0 {
		return nil, fmt.Errorf("sched: empty partition")
	}
	s := &Scheduler{
		engine: engine,
		policy: EASY(),
		nodes:  make([]nodeInfo, len(hostnames)),
		jobs:   make(map[int]*Job),
		nextID: 1,
	}
	seen := make(map[string]bool, len(hostnames))
	for i, h := range hostnames {
		if seen[h] {
			return nil, fmt.Errorf("sched: duplicate hostname %q", h)
		}
		seen[h] = true
		s.nodes[i] = nodeInfo{host: h, state: NodeIdle}
	}
	for _, o := range opts {
		o.apply(s)
	}
	if s.policy == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	if pa, ok := s.policy.(PowerAwarePolicy); ok && s.advisor != nil {
		pa.SetAdvisor(s.advisor)
	}
	if s.linearScan {
		s.free = &linearFree{s: s}
	} else {
		s.free = newBitsetFree(len(s.nodes))
	}
	return s, nil
}

// PolicyName returns the active scheduling policy's name.
func (s *Scheduler) PolicyName() string { return s.policy.Name() }

// Submit queues a job; scheduling is attempted at the current virtual time.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("sched: job %q requests %d nodes", spec.Name, spec.Nodes)
	}
	if spec.Nodes > len(s.nodes) {
		return nil, fmt.Errorf("sched: job %q requests %d nodes, partition has %d", spec.Name, spec.Nodes, len(s.nodes))
	}
	// The comparisons reject NaN too. The queue and the release list are
	// ordered by these times, and the job's end is scheduled from them.
	if !(spec.TimeLimit > 0 && spec.TimeLimit <= math.MaxFloat64) {
		return nil, fmt.Errorf("sched: job %q needs a positive, finite time limit, got %v", spec.Name, spec.TimeLimit)
	}
	if !(spec.Duration >= 0 && spec.Duration <= math.MaxFloat64) {
		return nil, fmt.Errorf("sched: job %q needs a non-negative, finite duration, got %v", spec.Name, spec.Duration)
	}
	job := &Job{ID: s.nextID, Spec: spec, state: StatePending, submitted: s.engine.Now()}
	s.nextID++
	s.jobs[job.ID] = job
	s.enqueue(job)
	s.kick()
	return job, nil
}

// enqueue inserts a pending job before the first queued job it has
// strictly higher priority than. Inserting each submission this way keeps
// the queue in the order a stable sort of the submissions by Policy.Less
// gives, so equal priorities keep submission order.
func (s *Scheduler) enqueue(job *Job) {
	i := sort.Search(len(s.queue), func(i int) bool { return s.policy.Less(job, s.queue[i]) })
	s.queue = slices.Insert(s.queue, i, job)
}

// Cancel removes a pending job or stops a running one (scancel).
func (s *Scheduler) Cancel(jobID int) error {
	job, ok := s.jobs[jobID]
	if !ok {
		return fmt.Errorf("sched: unknown job %d", jobID)
	}
	switch job.state {
	case StatePending:
		s.removeFromQueue(job)
		job.state = StateCancelled
		job.ended = s.engine.Now()
		s.finish(job, StateCancelled)
		s.kick() // the job may have been the blocked head
	case StateRunning:
		s.endJob(job, StateCancelled)
	default:
		return fmt.Errorf("sched: job %d already %s", jobID, job.state)
	}
	return nil
}

// NodeDown marks node i failed (e.g. thermal halt). A job running there
// ends in NODE_FAIL and is requeued when its spec asks for it.
func (s *Scheduler) NodeDown(i int) {
	ni := &s.nodes[i]
	if ni.state == NodeDown {
		return
	}
	victim := ni.jobID
	if ni.state == NodeIdle {
		s.free.Remove(i)
	}
	ni.state = NodeDown
	ni.jobID = 0
	if victim != 0 {
		job := s.jobs[victim]
		requeue := job.Spec.Requeue &&
			(job.Spec.MaxRequeues <= 0 || job.attempt < job.Spec.MaxRequeues)
		s.endJob(job, StateNodeFail)
		if requeue {
			spec := job.Spec
			if spec.OnRequeue != nil {
				spec.OnRequeue(job, &spec)
			}
			clone := &Job{ID: s.nextID, Spec: spec, state: StatePending,
				submitted: s.engine.Now(), attempt: job.attempt + 1}
			s.nextID++
			s.jobs[clone.ID] = clone
			s.enqueue(clone)
		}
	}
	s.kick()
}

// NodeUp returns failed node i to service.
func (s *Scheduler) NodeUp(i int) {
	if ni := &s.nodes[i]; ni.state == NodeDown {
		ni.state = NodeIdle
		s.free.Add(i)
	}
	s.kick()
}

// Job returns a job by id.
func (s *Scheduler) Job(id int) (*Job, bool) {
	j, ok := s.jobs[id]
	return j, ok
}

// Reschedule requests a scheduling pass at the current instant. External
// controllers use it when conditions the scheduler cannot see change —
// the power plane calls it when budget headroom reappears, so
// power-delayed heads do not wait for the next job event.
func (s *Scheduler) Reschedule() { s.kick() }

// kick schedules a trySchedule pass at the current instant, unless one
// is already pending there: that pass has not read the scheduler's state
// yet, so it sees this change too. The flag clears as the pass starts, so
// a kick from inside a pass (an OnStart submission, a NodeDown during a
// placement's reads) still schedules the next one.
func (s *Scheduler) kick() {
	if s.passPending {
		return
	}
	// Scheduling runs as an event so that submissions during event
	// processing still honour engine ordering.
	if s.cycleFn == nil {
		s.cycleFn = func(*sim.Engine) {
			s.passPending = false
			s.trySchedule()
		}
	}
	if _, err := s.engine.ScheduleAfter(0, "sched.cycle", s.cycleFn); err != nil {
		panic(fmt.Sprintf("sched: kick: %v", err)) // unreachable: delay 0 is valid
	}
	s.passPending = true
}

// trySchedule starts the highest-priority pending job while it fits, then
// (when the policy asks for it) runs an EASY backfill pass: later jobs may
// start out of order as long as they cannot delay the blocked head's
// reservation.
func (s *Scheduler) trySchedule() {
	// The queue is in priority order and holds only pending jobs, so its
	// front is the head, even after an OnStart callback submits or cancels
	// jobs.
	for len(s.queue) > 0 {
		head := s.queue[0]
		if head.Spec.Nodes > s.free.Len() {
			break
		}
		if gate, ok := s.policy.(admissionGate); ok && !gate.Admit(head, len(s.releases)) {
			// The head fits node-wise but not budget-wise: stop the pass
			// (power-aware policies run no backfill, so nothing overtakes
			// it) and wait for job completions or a power plane
			// Reschedule to retry.
			break
		}
		picked := s.pickHosts(head)
		if picked == nil {
			return // the head no longer fits (see pickHosts)
		}
		s.start(head, picked)
	}
	if !s.policy.Backfill() || len(s.queue) < 2 {
		return
	}
	// Compute the head's shadow start from running jobs' wall-time limits,
	// then admit any later job that either ends before the shadow time or
	// fits in the nodes the head won't need. Starts edit the queue, so the
	// candidates come from a snapshot of it.
	order := append(s.orderScratch[:0], s.queue...)
	s.orderScratch = order
	shadow, extra := s.reservation(order[0])
	now := s.engine.Now()
	for _, cand := range s.policy.BackfillOrder(order[1:]) {
		if cand.state != StatePending || cand.Spec.Nodes > s.free.Len() {
			continue
		}
		endsBeforeShadow := now+cand.Spec.TimeLimit <= shadow
		if !endsBeforeShadow && cand.Spec.Nodes > extra {
			continue
		}
		picked := s.pickHosts(cand)
		if picked == nil {
			return
		}
		s.start(cand, picked)
		if !endsBeforeShadow {
			// Only charge the spare-node budget when it was the admitting
			// reason: a job that ends before the shadow time has returned
			// its nodes by then, whichever nodes it borrowed.
			extra -= cand.Spec.Nodes
		}
	}
}

// release is one running job's future node release: its start time plus
// wall limit, and the nodes it frees then.
type release struct {
	at    float64
	jobID int
	nodes int
}

// compareReleases orders releases by (time, job id).
func compareReleases(a, b release) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.jobID, b.jobID)
}

// releaseOf is a running job's entry in the release list. Its key is
// fixed while the job runs, so start and endJob find the same position.
func releaseOf(job *Job) release {
	return release{at: job.started + job.Spec.TimeLimit, jobID: job.ID, nodes: len(job.nodes)}
}

// reservation returns the head job's expected start (shadow time) and the
// number of nodes that remain free at that time beyond the head's need.
// When the head can never start with the nodes currently in service (e.g.
// enough of the partition is down), it returns +Inf: no backfill can delay
// a start that is not coming, so every fitting candidate is harmless.
func (s *Scheduler) reservation(head *Job) (shadow float64, extraNodes int) {
	avail := s.free.Len()
	if head.Spec.Nodes <= avail {
		return s.engine.Now(), avail - head.Spec.Nodes
	}
	releases := s.releases
	if s.linearScan {
		releases = s.rescanReleases()
	}
	// Walk the releases in time order and stop at the first instant the
	// head fits. Releases at the same instant free together, so a whole
	// group is accumulated before the fit test.
	for i := 0; i < len(releases); {
		at := releases[i].at
		for ; i < len(releases) && releases[i].at == at; i++ {
			avail += releases[i].nodes
		}
		if avail >= head.Spec.Nodes {
			return at, avail - head.Spec.Nodes
		}
	}
	return math.Inf(1), 0
}

// rescanReleases rebuilds the release list the way the seed scheduler did,
// from a full partition scan, for the WithLinearScan reference.
func (s *Scheduler) rescanReleases() []release {
	perJob := make(map[int]int)
	for _, ni := range s.nodes {
		if ni.state == NodeAlloc {
			perJob[ni.jobID]++
		}
	}
	releases := make([]release, 0, len(perJob))
	for id, count := range perJob {
		j := s.jobs[id]
		releases = append(releases, release{at: j.started + j.Spec.TimeLimit, jobID: id, nodes: count})
	}
	slices.SortFunc(releases, compareReleases)
	return releases
}

// pickHosts asks the policy for the job's allocation and validates its
// size. It returns nil when the policy found the job no longer fits; the
// pass then ends, since the NodeDown that shrank the idle set has kicked
// a new one.
func (s *Scheduler) pickHosts(job *Job) []int {
	picked := s.policy.PickHosts(s.free, job)
	if picked != nil && len(picked) != job.Spec.Nodes {
		panic(fmt.Sprintf("sched: policy %s picked %d hosts for job %d (want %d)",
			s.policy.Name(), len(picked), job.ID, job.Spec.Nodes))
	}
	return picked
}

func (s *Scheduler) start(job *Job, picked []int) {
	s.removeFromQueue(job)
	job.state = StateRunning
	job.started = s.engine.Now()
	job.nodes = picked
	for _, i := range job.nodes {
		ni := &s.nodes[i]
		if ni.state != NodeIdle {
			panic(fmt.Sprintf("sched: policy %s picked non-idle host %s for job %d",
				s.policy.Name(), ni.host, job.ID))
		}
		ni.state = NodeAlloc
		ni.jobID = job.ID
		s.free.Remove(i)
	}
	r := releaseOf(job)
	i, _ := slices.BinarySearchFunc(s.releases, r, compareReleases)
	s.releases = slices.Insert(s.releases, i, r)
	if s.advisor != nil {
		// Reserve the predicted draw until the plane's measurements see it.
		s.advisor.NotePlacement(job.Spec.Activity(), job.Spec.Nodes)
	}
	job.runScale = 1
	if s.runtimeScale != nil {
		if scale := s.runtimeScale(job, job.nodes); scale > 1 {
			job.runScale = scale
		}
	}
	runFor := job.Spec.Duration * job.runScale
	final := StateCompleted
	if job.Spec.TimeLimit < runFor {
		runFor = job.Spec.TimeLimit
		final = StateTimeout
	}
	ev, err := s.engine.ScheduleAfter(runFor, fmt.Sprintf("sched.end(job %d)", job.ID), func(*sim.Engine) {
		s.endJob(job, final)
	})
	if err != nil {
		panic(fmt.Sprintf("sched: schedule end: %v", err)) // unreachable while the end is finite (see TimeLimit)
	}
	job.endEvent = ev
	if job.Spec.OnStart != nil {
		job.Spec.OnStart(job, job.nodes)
	}
}

// endJob releases a running job's nodes with the given final state.
func (s *Scheduler) endJob(job *Job, state JobState) {
	if job.state != StateRunning {
		return
	}
	job.endEvent.Cancel()
	job.endEvent = sim.Handle{}
	if i, ok := slices.BinarySearchFunc(s.releases, releaseOf(job), compareReleases); ok {
		s.releases = slices.Delete(s.releases, i, i+1)
	}
	for _, i := range job.nodes {
		if ni := &s.nodes[i]; ni.jobID == job.ID {
			ni.jobID = 0
			if ni.state == NodeAlloc {
				ni.state = NodeIdle
				s.free.Add(i)
			}
		}
	}
	job.state = state
	job.ended = s.engine.Now()
	s.finish(job, state)
	s.kick()
}

func (s *Scheduler) finish(job *Job, state JobState) {
	if job.Spec.OnEnd != nil {
		job.Spec.OnEnd(job, state)
	}
}

func (s *Scheduler) removeFromQueue(job *Job) {
	for i, j := range s.queue {
		if j == job {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// JobRow is one squeue/sacct line.
type JobRow struct {
	ID        int
	Name      string
	User      string
	State     JobState
	Nodes     int
	Hosts     []string
	Submit    float64
	Start     float64
	End       float64
	TimeLimit float64
}

// Squeue lists pending and running jobs, pending first in the policy's
// priority order.
func (s *Scheduler) Squeue() []JobRow {
	var rows []JobRow
	for _, j := range s.queue {
		rows = append(rows, s.row(j))
	}
	var running []JobRow
	for _, j := range s.jobs {
		if j.state == StateRunning {
			running = append(running, s.row(j))
		}
	}
	sort.Slice(running, func(i, k int) bool { return running[i].ID < running[k].ID })
	return append(rows, running...)
}

// Pending returns how many jobs sit in the pending queue (the queue holds
// nothing else). Campaign runners sample it at submission instants so
// per-cluster backlogs surface in fleet reports without touching
// scheduler internals.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Sacct lists all jobs ever submitted, by id.
func (s *Scheduler) Sacct() []JobRow {
	rows := make([]JobRow, 0, len(s.jobs))
	for _, j := range s.jobs {
		rows = append(rows, s.row(j))
	}
	sort.Slice(rows, func(i, k int) bool { return rows[i].ID < rows[k].ID })
	return rows
}

func (s *Scheduler) row(j *Job) JobRow {
	return JobRow{
		ID: j.ID, Name: j.Spec.Name, User: j.Spec.User, State: j.state,
		Nodes: j.Spec.Nodes, Hosts: s.hostnames(j.nodes), Submit: j.submitted,
		Start: j.started, End: j.ended, TimeLimit: j.Spec.TimeLimit,
	}
}

// hostnames renders node indices as their hostnames (nil for none).
func (s *Scheduler) hostnames(nodes []int) []string {
	if len(nodes) == 0 {
		return nil
	}
	hosts := make([]string, len(nodes))
	for k, i := range nodes {
		hosts[k] = s.nodes[i].host
	}
	return hosts
}

// NodeRow is one sinfo line.
type NodeRow struct {
	Host  string
	State NodeState
	JobID int
}

// Sinfo lists nodes in partition order.
func (s *Scheduler) Sinfo() []NodeRow {
	rows := make([]NodeRow, 0, len(s.nodes))
	for _, ni := range s.nodes {
		rows = append(rows, NodeRow{Host: ni.host, State: ni.state, JobID: ni.jobID})
	}
	return rows
}
