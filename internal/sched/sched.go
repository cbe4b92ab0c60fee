// Package sched implements the SLURM-style batch scheduler ported to Monte
// Cimone (Section IV-A of the paper lists SLURM among the essential
// production services brought up on the cluster).
//
// The scheduler manages one partition of named nodes, accepts batch jobs
// with node counts and wall-time limits, and reacts to node failures (the
// thermal halt of node 7 in the paper surfaces as a NODE_FAIL job state).
// sinfo/squeue/sacct-style views expose the state. All timing is driven by
// the shared discrete-event engine.
//
// Scheduling decisions are delegated to a pluggable Policy (see policy.go):
// the default EASY policy reproduces the production FIFO+EASY-backfill
// configuration, and FIFO, shortest-job-first and best-fit packing
// variants ship alongside it. The hot paths are indexed — an incrementally
// maintained free-node set and a release heap — so synthetic partitions far
// beyond the paper's eight nodes schedule without O(nodes) rescans per
// decision.
package sched

import (
	"container/heap"
	"fmt"
	"math"
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
	// TimeLimit is the wall-time limit in seconds (sbatch -t).
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
	// OnStart runs when the job starts, with the allocated hostnames.
	OnStart func(job *Job, hosts []string)
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
	// Spec is the submission.
	Spec JobSpec

	state     JobState
	submitted float64
	started   float64
	ended     float64
	hosts     []string
	attempt   int     // 0 for the original submission, +1 per requeue
	runScale  float64 // runtime stretch applied at start (0 until started)
	endEvent  sim.Handle
	release   *releaseEntry
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

// Hosts returns the allocated hostnames (nil unless running or finished).
func (j *Job) Hosts() []string { return append([]string(nil), j.hosts...) }

// SubmitTime, StartTime and EndTime return the job's timestamps; Start and
// End are zero until the respective transition.
func (j *Job) SubmitTime() float64 { return j.submitted }

// StartTime returns when the job started (0 if never started).
func (j *Job) StartTime() float64 { return j.started }

// EndTime returns when the job ended (0 if still queued/running).
func (j *Job) EndTime() float64 { return j.ended }

type nodeInfo struct {
	host  string
	idx   int // position in the partition order
	state NodeState
	jobID int // running job, 0 if none
}

// Scheduler is the controller daemon (slurmctld).
type Scheduler struct {
	engine      *sim.Engine
	partition   string
	policy      Policy
	advisor     PowerAdvisor
	linearScan  bool
	fifoOrdered bool // policy priority == submission order; skip sorting

	nodes    map[string]*nodeInfo
	order    []string // stable allocation order
	free     freeIndex
	releases releaseHeap
	queue    []*Job // pending, submission order
	jobs     map[int]*Job
	nextID   int

	// runtimeScale, when installed (WithRuntimeScaler), stretches each
	// job's modelled execution time at start: fault campaigns return > 1
	// for allocations touching straggler nodes or degraded-network windows.
	runtimeScale func(job *Job, hosts []string) float64

	// Per-cycle scratch, rebuilt on every scheduling pass: the priority
	// snapshot of the pending queue, the reservation walk's value-copy
	// release heap, and the cycle callback itself. All three are consumed
	// strictly within one trySchedule call (kick only enqueues an engine
	// event), so reusing them is safe and keeps the scheduling cycle —
	// which runs after every submission and completion — allocation-free.
	cycleFn      func(*sim.Engine)
	orderScratch []*Job
	relScratch   scratchHeap
}

// New builds a scheduler over the given hostnames. The default policy is
// EASY backfill, matching the production SLURM configuration.
func New(engine *sim.Engine, partition string, hostnames []string, opts ...Option) (*Scheduler, error) {
	if engine == nil {
		return nil, fmt.Errorf("sched: nil engine")
	}
	if len(hostnames) == 0 {
		return nil, fmt.Errorf("sched: empty partition")
	}
	s := &Scheduler{
		engine:    engine,
		partition: partition,
		policy:    EASY(),
		nodes:     make(map[string]*nodeInfo, len(hostnames)),
		jobs:      make(map[int]*Job),
		nextID:    1,
	}
	for i, h := range hostnames {
		if _, dup := s.nodes[h]; dup {
			return nil, fmt.Errorf("sched: duplicate hostname %q", h)
		}
		s.nodes[h] = &nodeInfo{host: h, idx: i, state: NodeIdle}
		s.order = append(s.order, h)
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
	_, s.fifoOrdered = s.policy.(interface{ keepsSubmissionOrder() })
	if s.linearScan {
		s.free = &linearFree{s: s}
	} else {
		idx := make([]int, len(s.order))
		for i := range idx {
			idx[i] = i
		}
		s.free = &indexedFree{order: s.order, idx: idx}
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
	if spec.TimeLimit <= 0 {
		return nil, fmt.Errorf("sched: job %q needs a positive time limit", spec.Name)
	}
	if spec.Duration < 0 {
		return nil, fmt.Errorf("sched: job %q has negative duration", spec.Name)
	}
	job := &Job{ID: s.nextID, Spec: spec, state: StatePending, submitted: s.engine.Now()}
	s.nextID++
	s.jobs[job.ID] = job
	s.queue = append(s.queue, job)
	s.kick()
	return job, nil
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
	case StateRunning:
		s.endJob(job, StateCancelled)
	default:
		return fmt.Errorf("sched: job %d already %s", jobID, job.state)
	}
	return nil
}

// NodeDown marks a node failed (e.g. thermal halt). A job running there
// ends in NODE_FAIL and is requeued when its spec asks for it.
func (s *Scheduler) NodeDown(host string) error {
	ni, ok := s.nodes[host]
	if !ok {
		return fmt.Errorf("sched: unknown node %q", host)
	}
	if ni.state == NodeDown {
		return nil
	}
	victim := ni.jobID
	if ni.state == NodeIdle {
		s.free.Remove(ni.idx)
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
			s.queue = append(s.queue, clone)
		}
	}
	s.kick()
	return nil
}

// NodeUp returns a failed node to service.
func (s *Scheduler) NodeUp(host string) error {
	ni, ok := s.nodes[host]
	if !ok {
		return fmt.Errorf("sched: unknown node %q", host)
	}
	if ni.state == NodeDown {
		ni.state = NodeIdle
		s.free.Add(ni.idx)
	}
	s.kick()
	return nil
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

// kick schedules a trySchedule pass at the current instant.
func (s *Scheduler) kick() {
	// Scheduling runs as an event so that submissions during event
	// processing still honour engine ordering.
	if s.cycleFn == nil {
		s.cycleFn = func(*sim.Engine) { s.trySchedule() }
	}
	if _, err := s.engine.ScheduleAfter(0, "sched.cycle", s.cycleFn); err != nil {
		panic(fmt.Sprintf("sched: kick: %v", err)) // unreachable: delay 0 is valid
	}
}

// pendingByPriority returns the pending queue in the policy's priority
// order; the sort is stable, so equal priorities keep submission order.
// Policies that keep submission order outright skip the sort. The snapshot
// lives in the scheduler's scratch buffer: each call invalidates the
// previous one, which trySchedule (the only caller) never needs again.
func (s *Scheduler) pendingByPriority() []*Job {
	out := append(s.orderScratch[:0], s.queue...)
	s.orderScratch = out
	if !s.fifoOrdered {
		sort.SliceStable(out, func(i, j int) bool { return s.policy.Less(out[i], out[j]) })
	}
	return out
}

// trySchedule starts the highest-priority pending job while it fits, then
// (when the policy asks for it) runs an EASY backfill pass: later jobs may
// start out of order as long as they cannot delay the blocked head's
// reservation.
func (s *Scheduler) trySchedule() {
	// Priority order is invariant while heads are started (free nodes only
	// shrink), so one sort serves the whole pass — unless an OnStart
	// callback submits new jobs, which forces a re-sort.
	resort := true
	var order []*Job
	idx := 0
	for {
		if resort {
			order = s.pendingByPriority()
			idx = 0
			resort = false
		}
		if idx >= len(order) {
			break
		}
		head := order[idx]
		if head.state != StatePending {
			// An OnStart callback cancelled it out of the snapshot.
			idx++
			continue
		}
		if head.Spec.Nodes > s.free.Count() {
			break
		}
		if gate, ok := s.policy.(admissionGate); ok && !gate.Admit(head, s.releases.Len()) {
			// The head fits node-wise but not budget-wise: stop the pass
			// (power-aware policies run no backfill, so nothing overtakes
			// it) and wait for job completions or a power plane
			// Reschedule to retry.
			break
		}
		before := s.nextID
		s.start(head, s.pickHosts(head))
		idx++
		resort = s.nextID != before
	}
	if !s.policy.Backfill() || len(s.queue) < 2 {
		return
	}
	// Compute the head's shadow start from running jobs' wall-time limits,
	// then admit any later job that either ends before the shadow time or
	// fits in the nodes the head won't need.
	order = s.pendingByPriority()
	shadow, extra := s.reservation(order[0])
	now := s.engine.Now()
	for _, cand := range s.policy.BackfillOrder(order[1:]) {
		if cand.state != StatePending || cand.Spec.Nodes > s.free.Count() {
			continue
		}
		endsBeforeShadow := now+cand.Spec.TimeLimit <= shadow
		if !endsBeforeShadow && cand.Spec.Nodes > extra {
			continue
		}
		s.start(cand, s.pickHosts(cand))
		if !endsBeforeShadow {
			// Only charge the spare-node budget when it was the admitting
			// reason: a job that ends before the shadow time has returned
			// its nodes by then, whichever nodes it borrowed.
			extra -= cand.Spec.Nodes
		}
	}
}

// reservation returns the head job's expected start (shadow time) and the
// number of nodes that remain free at that time beyond the head's need.
// When the head can never start with the nodes currently in service (e.g.
// enough of the partition is down), it returns +Inf: no backfill can delay
// a start that is not coming, so every fitting candidate is harmless.
func (s *Scheduler) reservation(head *Job) (shadow float64, extraNodes int) {
	avail := s.free.Count()
	if head.Spec.Nodes <= avail {
		return s.engine.Now(), avail - head.Spec.Nodes
	}
	if s.linearScan {
		return s.reservationRescan(head, avail)
	}
	// Walk the maintained release heap in time order on a value-copy
	// scratch heap: O(releases) to heapify, then only as many pops as it
	// takes to fit the head. Releases at the same instant free together,
	// so a whole group is accumulated before the fit test.
	scratch := s.releases.scratchInto(s.relScratch)
	s.relScratch = scratch // retain the (possibly grown) backing for reuse
	for scratch.Len() > 0 {
		at := scratch[0].at
		for scratch.Len() > 0 && scratch[0].at == at {
			avail += scratch[0].nodes
			heap.Pop(&scratch)
		}
		if avail >= head.Spec.Nodes {
			return at, avail - head.Spec.Nodes
		}
	}
	return math.Inf(1), 0
}

// reservationRescan recomputes the reservation the way the seed scheduler
// did — a full partition scan per pass — and is kept, together with
// linearFree, as the benchmark baseline for the indexed structures.
func (s *Scheduler) reservationRescan(head *Job, avail int) (float64, int) {
	perJob := make(map[int]int)
	for _, h := range s.order {
		if s.nodes[h].state == NodeAlloc {
			perJob[s.nodes[h].jobID]++
		}
	}
	releases := make([]releaseEntry, 0, len(perJob))
	for id, count := range perJob {
		j := s.jobs[id]
		releases = append(releases, releaseEntry{at: j.started + j.Spec.TimeLimit, nodes: count, jobID: id})
	}
	sort.Slice(releases, func(i, k int) bool {
		if releases[i].at != releases[k].at {
			return releases[i].at < releases[k].at
		}
		return releases[i].jobID < releases[k].jobID
	})
	for i := 0; i < len(releases); {
		at := releases[i].at
		for i < len(releases) && releases[i].at == at {
			avail += releases[i].nodes
			i++
		}
		if avail >= head.Spec.Nodes {
			return at, avail - head.Spec.Nodes
		}
	}
	return math.Inf(1), 0
}

// pickHosts asks the policy for the job's allocation and validates it.
func (s *Scheduler) pickHosts(job *Job) []string {
	hosts := s.policy.PickHosts(s.free.Hosts(), job)
	if len(hosts) != job.Spec.Nodes {
		panic(fmt.Sprintf("sched: policy %s picked %d hosts for job %d (want %d)",
			s.policy.Name(), len(hosts), job.ID, job.Spec.Nodes))
	}
	return hosts
}

func (s *Scheduler) start(job *Job, hosts []string) {
	s.removeFromQueue(job)
	job.state = StateRunning
	job.started = s.engine.Now()
	job.hosts = append([]string(nil), hosts...)
	for _, h := range hosts {
		ni := s.nodes[h]
		if ni == nil || ni.state != NodeIdle {
			panic(fmt.Sprintf("sched: policy %s picked non-idle host %q for job %d",
				s.policy.Name(), h, job.ID))
		}
		ni.state = NodeAlloc
		ni.jobID = job.ID
		s.free.Remove(ni.idx)
	}
	job.release = &releaseEntry{at: job.started + job.Spec.TimeLimit, nodes: len(hosts), jobID: job.ID}
	s.releases.push(job.release)
	if s.advisor != nil {
		// Reserve the predicted draw until the plane's measurements see it.
		s.advisor.NotePlacement(job.Spec.Activity(), job.Spec.Nodes)
	}
	job.runScale = 1
	if s.runtimeScale != nil {
		if scale := s.runtimeScale(job, job.hosts); scale > 1 {
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
		panic(fmt.Sprintf("sched: schedule end: %v", err)) // unreachable: runFor >= 0
	}
	job.endEvent = ev
	if job.Spec.OnStart != nil {
		job.Spec.OnStart(job, job.Hosts())
	}
}

// endJob releases a running job's nodes with the given final state.
func (s *Scheduler) endJob(job *Job, state JobState) {
	if job.state != StateRunning {
		return
	}
	job.endEvent.Cancel()
	job.endEvent = sim.Handle{}
	if job.release != nil {
		s.releases.remove(job.release)
		job.release = nil
	}
	for _, h := range job.hosts {
		if ni := s.nodes[h]; ni.jobID == job.ID {
			ni.jobID = 0
			if ni.state == NodeAlloc {
				ni.state = NodeIdle
				s.free.Add(ni.idx)
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
	for _, j := range s.pendingByPriority() {
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

// QueueDepth is the scheduler's load probe: how many jobs sit in the
// pending queue and how many hold nodes right now. It is the queue half
// of the headroom picture the fleet meta-scheduler scores clusters by
// (the power half is powerplane.Governor.HeadroomWatts); campaign runners
// sample it at submission instants so per-cluster backlogs surface in
// fleet reports without touching scheduler internals.
func (s *Scheduler) QueueDepth() (pending, running int) {
	for _, j := range s.queue {
		if j.state == StatePending {
			pending++
		}
	}
	for _, j := range s.jobs {
		if j.state == StateRunning {
			running++
		}
	}
	return pending, running
}

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
		Nodes: j.Spec.Nodes, Hosts: j.Hosts(), Submit: j.submitted,
		Start: j.started, End: j.ended, TimeLimit: j.Spec.TimeLimit,
	}
}

// NodeRow is one sinfo line.
type NodeRow struct {
	Host  string
	State NodeState
	JobID int
}

// Sinfo lists nodes in partition order.
func (s *Scheduler) Sinfo() []NodeRow {
	rows := make([]NodeRow, 0, len(s.order))
	for _, h := range s.order {
		ni := s.nodes[h]
		rows = append(rows, NodeRow{Host: h, State: ni.state, JobID: ni.jobID})
	}
	return rows
}

// Partition returns the partition name.
func (s *Scheduler) Partition() string { return s.partition }
