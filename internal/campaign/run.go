package campaign

import (
	"fmt"

	"montecimone/internal/core"
	"montecimone/internal/fault"
	"montecimone/internal/sched"
	"montecimone/internal/sim"
	"montecimone/internal/workload"
)

// JobOutcome is one job's life in the campaign, all times relative to
// campaign start (the instant after boot and mitigation, when the first
// submission clock starts).
type JobOutcome struct {
	Name     string
	Workload string
	Nodes    int
	SubmitS  float64
	StartS   float64 // -1 if the job never started (last attempt under faults)
	EndS     float64 // -1 if the job never ended
	State    sched.JobState
	Hosts    []string

	// DurationS is the entry's nominal modelled execution time (the useful
	// work the job represents when it completes).
	DurationS float64
	// Requeues counts NODE_FAIL requeues consumed; DoneS is the
	// checkpointed progress surviving the last failure; UsedNodeS
	// accumulates node-seconds across every attempt. All three stay zero
	// without a fault block.
	Requeues  int
	DoneS     float64
	UsedNodeS float64
}

// Runner drives one campaign through the full testbed. Build with
// NewRunner (which boots the system and schedules every submission),
// advance with Drain — or step the engine yourself through System() for
// mid-campaign inspection — then collect Result and Close.
type Runner struct {
	spec     Spec
	sys      *core.System
	jobs     []JobEntry
	startT   float64 // campaign t=0 on the engine clock
	outcomes []*JobOutcome
	events   []string
	execs    map[int]*workload.Execution // by scheduler job id
	ctrl     *fault.Controller           // nil without a fault block

	// peakQueue is the deepest pending queue seen at any submission
	// instant (sched.Scheduler.Pending) — the per-cluster backlog
	// signal fleet reports aggregate.
	peakQueue int
}

// NewRunner validates and expands the spec, boots the system (applying
// the airflow mitigation when asked) and schedules all submissions.
func NewRunner(spec Spec) (*Runner, error) {
	jobs, err := spec.GenerateJobs()
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(core.Options{
		Nodes:        spec.Nodes,
		Seed:         spec.Seed,
		Policy:       spec.Policy,
		NoMonitor:    !spec.Monitor,
		PowerBudgetW: spec.PowerBudgetW,
		HPMPatch:     spec.Monitor,
		Org:          spec.Org,
		ClusterTag:   spec.ClusterTag,
		AmbientC:     spec.AmbientC,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	r := &Runner{spec: spec, sys: sys, jobs: jobs, execs: make(map[int]*workload.Execution)}
	if err := sys.Boot(); err != nil {
		sys.Close()
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if spec.Mitigated {
		if err := sys.Cluster.ApplyAirflowMitigation(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	r.startT = sys.Engine.Now()
	if spec.Faults != nil {
		ctrl, err := fault.NewController(fault.Config{
			Engine: sys.Engine, Cluster: sys.Cluster, Sched: sys.Scheduler, Plane: sys.Plane,
			Spec: spec.Faults, RNG: sim.NewRNG(spec.Seed),
			StartT: r.startT, HorizonS: spec.HorizonS,
			Logf: r.logf,
		})
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("campaign: %w", err)
		}
		if err := ctrl.Arm(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("campaign: %w", err)
		}
		sys.Scheduler.SetRuntimeScaler(ctrl.Slowdown)
		r.ctrl = ctrl
	}
	for i := range jobs {
		entry := jobs[i]
		out := &JobOutcome{
			Name: entry.Name, Workload: entry.Workload, Nodes: entry.Nodes,
			SubmitS: entry.SubmitS, StartS: -1, EndS: -1, State: sched.StatePending,
			DurationS: entry.DurationS,
		}
		r.outcomes = append(r.outcomes, out)
		if _, err := sys.Engine.ScheduleAt(r.startT+entry.SubmitS, "campaign.submit("+entry.Name+")",
			func(*sim.Engine) { r.submit(entry, out) }); err != nil {
			sys.Close()
			return nil, fmt.Errorf("campaign: schedule submission %s: %w", entry.Name, err)
		}
	}
	return r, nil
}

// submit hands one entry to the scheduler, wiring the phased workload
// execution and the event log into the job callbacks.
func (r *Runner) submit(entry JobEntry, out *JobOutcome) {
	model := workload.MustLookup(entry.Workload) // names validated with the spec
	spec := sched.JobSpec{
		Name: entry.Name, User: "campaign", Nodes: entry.Nodes,
		TimeLimit: entry.TimeLimitS, Duration: entry.DurationS,
		Workload: model,
		OnStart: func(j *sched.Job, nodes []int) {
			out.StartS = r.sys.Engine.Now() - r.startT
			out.Hosts = make([]string, len(nodes))
			for k, n := range nodes {
				out.Hosts[k] = r.sys.Cluster.Node(n).Hostname()
			}
			r.logf("t=%10.1f start  %-18s job=%-4d nodes=%d hosts=%v", out.StartS, entry.Name, j.ID, entry.Nodes, out.Hosts)
			ex, err := workload.Start(r.sys.Engine, r.sys.Cluster, model, nodes,
				workload.ExecOptions{FixedActivity: r.spec.FixedActivity, SlowFactor: j.RuntimeScale()})
			if err != nil {
				// A host halted between allocation and start; the node
				// failure path will surface it.
				r.logf("t=%10.1f stall  %-18s job=%-4d %v", out.StartS, entry.Name, j.ID, err)
				return
			}
			r.execs[j.ID] = ex
		},
		OnEnd: func(j *sched.Job, state sched.JobState) {
			out.EndS = r.sys.Engine.Now() - r.startT
			out.State = state
			if out.StartS >= 0 && out.EndS > out.StartS {
				out.UsedNodeS += float64(entry.Nodes) * (out.EndS - out.StartS)
			}
			if ex := r.execs[j.ID]; ex != nil {
				ex.Stop()
				delete(r.execs, j.ID)
			} else {
				// workload.Start failed mid-allocation (a host halted
				// between placement and start): clear whatever partial
				// installation it left on the surviving hosts.
				r.sys.Cluster.ClearWorkloadOn(j.Nodes())
			}
			r.logf("t=%10.1f end    %-18s job=%-4d state=%s", out.EndS, entry.Name, j.ID, state)
		},
	}
	if fs := r.spec.Faults; fs != nil {
		if enabled, max := fs.Requeue(); enabled {
			spec.Requeue = true
			spec.MaxRequeues = max
			spec.OnRequeue = func(failed *sched.Job, next *sched.JobSpec) {
				out.Requeues++
				if fs.Checkpoint {
					// Progress accrues at nominal speed: a stretched attempt
					// covers its wall time divided by the stretch. The next
					// attempt resumes from the last checkpoint at or before
					// the accumulated progress.
					scale := failed.RuntimeScale()
					if scale < 1 {
						scale = 1
					}
					elapsed := (failed.EndTime() - failed.StartTime()) / scale
					if done := workload.RestartPoint(model, out.DoneS+elapsed, fs.CheckpointS); done > out.DoneS {
						out.DoneS = done
					}
					next.Duration = entry.DurationS - out.DoneS
					if next.Duration < 0 {
						next.Duration = 0
					}
				}
				r.logf("t=%10.1f requeue %-17s job=%-4d attempt=%d done=%.1fs",
					r.sys.Engine.Now()-r.startT, entry.Name, failed.ID, failed.Attempt()+1, out.DoneS)
			}
		}
	}
	job, err := r.sys.Scheduler.Submit(spec)
	if err != nil {
		out.State = sched.StateCancelled
		r.logf("t=%10.1f reject %-18s %v", r.sys.Engine.Now()-r.startT, entry.Name, err)
		return
	}
	if pending := r.sys.Scheduler.Pending(); pending > r.peakQueue {
		r.peakQueue = pending
	}
	r.logf("t=%10.1f submit %-18s job=%-4d nodes=%d", r.sys.Engine.Now()-r.startT, entry.Name, job.ID, entry.Nodes)
}

func (r *Runner) logf(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

// System exposes the assembled testbed for mid-campaign inspection
// (squeue snapshots, telemetry queries).
func (r *Runner) System() *core.System { return r.sys }

// StartTime returns the engine instant of campaign t=0.
func (r *Runner) StartTime() float64 { return r.startT }

// Spec returns the validated campaign spec.
func (r *Runner) Spec() Spec { return r.spec }

// Jobs returns the expanded job stream in submission order.
func (r *Runner) Jobs() []JobEntry { return append([]JobEntry(nil), r.jobs...) }

// Drain advances the engine to the campaign horizon.
func (r *Runner) Drain() error {
	if err := r.sys.Engine.RunUntil(r.startT + r.spec.HorizonS); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// Close stops all periodic activity.
func (r *Runner) Close() { r.sys.Close() }

// Result snapshots the campaign outcome: call it after Drain (calling it
// earlier reports the campaign as of the current virtual time).
func (r *Runner) Result() *Result {
	res := &Result{
		Spec:   r.spec,
		Jobs:   make([]JobOutcome, len(r.outcomes)),
		Events: append([]string(nil), r.events...),
	}
	for i, o := range r.outcomes {
		res.Jobs[i] = *o
	}
	res.BrokerMessages = r.sys.Broker.Published()
	res.StoredSeries = r.sys.DB.SeriesCount()
	res.PeakQueueDepth = r.peakQueue
	if r.sys.Plane != nil {
		snap := r.sys.Plane.Snapshot()
		res.Plane = &snap
	}
	if r.ctrl != nil {
		st := r.ctrl.Stats(r.sys.Engine.Now())
		res.Fault = &st
	}
	res.aggregate()
	return res
}

// Run executes a campaign start to finish and returns its result.
func Run(spec Spec) (*Result, error) {
	r, err := NewRunner(spec)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.Drain(); err != nil {
		return nil, err
	}
	return r.Result(), nil
}
