package sched

import (
	"fmt"

	"montecimone/internal/power"
)

// Policy customises the scheduler's three decision points: the priority
// order of the pending queue, the hosts allocated to a starting job, and
// the backfill pass behind a blocked head (whether it runs and in which
// order candidates are tried).
//
// Whatever the policy, when the highest-priority pending job cannot start
// the engine computes an EASY reservation for it (shadow time plus
// spare-node budget) and no backfill admission may delay that reservation.
// For policies that keep submission order (fifo, easy, bestfit) this makes
// every job start eventually even under continuous arrivals; a reordering
// policy such as sjf protects only its own priority head, so jobs it
// deprioritises can wait as long as higher-priority work keeps arriving
// (they still run on any finite workload).
type Policy interface {
	// Name identifies the policy ("easy", "fifo", ...).
	Name() string
	// Less reports whether job a has strictly higher queue priority than
	// b. It must be a strict weak order, and its result for a job must not
	// change while the job is queued: the scheduler keeps the pending
	// queue in this order by inserting each submission before the first
	// queued job it outranks, which gives the order of a stable sort, so
	// equal priorities keep submission order.
	Less(a, b *Job) bool
	// Backfill reports whether a backfill pass runs behind a blocked head.
	Backfill() bool
	// BackfillOrder returns the order in which backfill candidates are
	// tried. cands holds the pending jobs behind the head in queue
	// priority order and must not be mutated in place.
	BackfillOrder(cands []*Job) []*Job
	// PickHosts selects job.Spec.Nodes distinct idle nodes for a starting
	// job from the scheduler's live view of its idle set, and returns
	// their partition indexes in a new slice that the job then owns. It
	// returns nil when the job no longer fits: a power-aware policy's
	// temperature reads may take idle nodes down, and the NodeDown that
	// took them has already asked for a new scheduling pass.
	PickHosts(free IdleSet, job *Job) []int
}

// PolicyNames lists the registered policy names in presentation order.
func PolicyNames() []string { return []string{"fifo", "easy", "sjf", "bestfit", "powercap"} }

// PolicyByName resolves a registered policy by name.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "fifo":
		return FIFO(), nil
	case "easy":
		return EASY(), nil
	case "sjf":
		return SJF(), nil
	case "bestfit":
		return BestFit(), nil
	case "powercap":
		return PowerCap(), nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (have %v)", name, PolicyNames())
}

// PowerAdvisor supplies the power-plane knowledge power-aware policies
// decide with. The cluster power governor implements it; the scheduler
// stays free of any physics or telemetry dependency.
type PowerAdvisor interface {
	// PredictedJobWatts returns the predicted incremental cluster draw
	// (watts) of placing a job with the given steady activity profile
	// (JobSpec.Activity — the workload model's calibrated Table VI
	// column) on the given node count: the rail model evaluated at that
	// activity, minus the idle draw the nodes already contribute.
	PredictedJobWatts(act power.Activity, nodes int) float64
	// HeadroomWatts returns the budget headroom currently available for
	// new placements (budget minus measured draw minus unexpired
	// placement reservations).
	HeadroomWatts() float64
	// NodeTempC returns node i's SoC junction temperature, for
	// cooler-node-first placement.
	NodeTempC(i int) float64
	// NotePlacement records that a job with the given activity profile
	// was just placed on the given node count, reserving its predicted
	// watts until the measured draw catches up.
	NotePlacement(act power.Activity, nodes int)
}

// PowerAwarePolicy is implemented by policies that consult a PowerAdvisor
// (installed via WithPowerAdvisor).
type PowerAwarePolicy interface {
	Policy
	SetAdvisor(PowerAdvisor)
}

// admissionGate is implemented by policies that can refuse (delay) the
// start of a job that fits node-wise — the power-budget gate. runningJobs
// is the number of jobs currently executing; a gate must admit when it is
// zero, or an over-budget head could starve the whole queue.
type admissionGate interface {
	Admit(job *Job, runningJobs int) bool
}

// Option configures the scheduler.
type Option interface{ apply(*Scheduler) }

type policyOption struct{ p Policy }

func (o policyOption) apply(s *Scheduler) { s.policy = o.p }

// WithPolicy selects the scheduling policy (default EASY).
func WithPolicy(p Policy) Option { return policyOption{p} }

type advisorOption struct{ a PowerAdvisor }

func (o advisorOption) apply(s *Scheduler) { s.advisor = o.a }

// WithPowerAdvisor installs the power plane's advisor: power-aware
// policies gate admissions on it and prefer cooler nodes, and every
// placement is reported back so the plane can reserve budget until its
// measurements catch up. Policies that are not power-aware ignore it.
func WithPowerAdvisor(a PowerAdvisor) Option { return advisorOption{a} }

// SetRuntimeScaler installs or replaces a runtime-stretch hook consulted
// once per job start with the job and its allocation: the returned factor
// (> 1 stretches, <= 1 is clamped to 1) multiplies the job's modelled
// execution time before the wall-time limit is applied, so a stretched
// job can run into TIMEOUT exactly as a straggler-slowed or
// network-degraded job would. Fault campaigns are the caller: the fault
// controller that supplies the factor only exists once the system — and
// with it the scheduler — is already assembled. Without a hook the
// scheduler behaves exactly as before.
func (s *Scheduler) SetRuntimeScaler(fn func(job *Job, nodes []int) float64) { s.runtimeScale = fn }

type linearScanOption bool

func (o linearScanOption) apply(s *Scheduler) { s.linearScan = bool(o) }

// WithLinearScan reinstates the seed scheduler's O(nodes) partition
// rescans for the idle set and the reservation computation. It exists as
// the ablation baseline for the scheduler-throughput benchmarks and has no
// other use.
func WithLinearScan(enabled bool) Option { return linearScanOption(enabled) }
