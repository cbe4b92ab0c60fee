package campaign

import (
	"fmt"
	"io"
	"sort"

	"montecimone/internal/fault"
	"montecimone/internal/powerplane"
	"montecimone/internal/report"
	"montecimone/internal/sched"
)

// Result is a campaign's outcome: the per-job rows, the event log and the
// aggregates the report prints. Everything in it is deterministic in
// (spec, seed), so two runs of the same campaign render byte-identical
// reports.
type Result struct {
	Spec   Spec
	Jobs   []JobOutcome
	Events []string

	// Aggregates (filled by aggregate).
	Completed, Failed, TimedOut, Unfinished int
	MakespanS                               float64 // last job end, campaign-relative
	MeanWaitS                               float64 // over started jobs
	MeanRunS                                float64 // over finished jobs
	UtilizationPct                          float64 // node-seconds used / (nodes x horizon)
	PerWorkload                             map[string]int
	// EndStates is the per-job end-state breakdown (final attempt's state
	// per entry). Always computed; rendered only for fault campaigns.
	EndStates map[sched.JobState]int

	// Fault-campaign aggregates (meaningful when Fault != nil):
	// availability is up-node-time over the whole machine-horizon, goodput
	// the completed jobs' nominal node-seconds over every node-second any
	// attempt consumed, Requeues the NODE_FAIL requeues across all jobs.
	AvailabilityPct float64
	GoodputPct      float64
	Requeues        int

	// PeakQueueDepth is the deepest pending queue observed at any
	// submission instant — the backlog probe fleet reports roll up. Not
	// rendered in the campaign report (which predates it and must stay
	// byte-stable).
	PeakQueueDepth int

	// Telemetry and power plane, when the spec enabled them.
	BrokerMessages uint64
	StoredSeries   int
	Plane          *powerplane.Snapshot
	// Fault holds the fault controller's accounting for chaos campaigns.
	Fault *fault.Stats

	// Deprecated: the engine is serial and forms no lookahead windows;
	// EngineWindows always reads 0.
	EngineWindows uint64
	// Deprecated: always reads 0 (see EngineWindows).
	WindowedEvents uint64
	// Deprecated: always reads 0 (see EngineWindows).
	CommittedEvents uint64
}

// aggregate derives the summary numbers from the job rows.
func (r *Result) aggregate() {
	r.PerWorkload = make(map[string]int)
	r.EndStates = make(map[sched.JobState]int)
	var waitSum, runSum, nodeSeconds float64
	var usefulNodeS, usedNodeS float64
	started, ran := 0, 0
	for _, j := range r.Jobs {
		r.PerWorkload[j.Workload]++
		r.EndStates[j.State]++
		r.Requeues += j.Requeues
		usedNodeS += j.UsedNodeS
		if j.State == sched.StateCompleted {
			usefulNodeS += float64(j.Nodes) * j.DurationS
		}
		switch j.State {
		case sched.StateCompleted:
			r.Completed++
		case sched.StateNodeFail, sched.StateCancelled:
			r.Failed++
		case sched.StateTimeout:
			r.TimedOut++
		default:
			r.Unfinished++
		}
		if j.StartS >= 0 {
			started++
			waitSum += j.StartS - j.SubmitS
			end := j.EndS
			if end < 0 {
				end = r.Spec.HorizonS // still running at the horizon
			} else if end > r.MakespanS {
				r.MakespanS = end
			}
			if j.EndS >= 0 {
				ran++
				runSum += j.EndS - j.StartS
			}
			nodeSeconds += float64(j.Nodes) * (end - j.StartS)
		}
	}
	if started > 0 {
		r.MeanWaitS = waitSum / float64(started)
	}
	// Mean runtime averages only jobs that actually started and ended —
	// submit-rejected entries count as Failed but never ran.
	if ran > 0 {
		r.MeanRunS = runSum / float64(ran)
	}
	if r.Spec.Nodes > 0 && r.Spec.HorizonS > 0 {
		r.UtilizationPct = 100 * nodeSeconds / (float64(r.Spec.Nodes) * r.Spec.HorizonS)
	}
	if r.Fault != nil {
		machineNodeS := float64(r.Spec.Nodes) * r.Spec.HorizonS
		if machineNodeS > 0 {
			r.AvailabilityPct = 100 * (1 - r.Fault.DownNodeS/machineNodeS)
		}
		if usedNodeS > 0 {
			r.GoodputPct = 100 * usefulNodeS / usedNodeS
		}
	}
}

// WriteReport renders the per-campaign report: header, aggregate block,
// per-workload counts, the job table and (when enabled) the telemetry and
// power-plane lines. The rendering is deterministic — the campaign
// determinism suite compares it byte for byte across runs.
func (r *Result) WriteReport(w io.Writer) error {
	s := r.Spec
	policy := s.Policy
	if policy == "" {
		policy = "easy"
	}
	fmt.Fprintf(w, "campaign %q: %d nodes, policy %s, seed %d, horizon %.0f s\n",
		s.Name, s.Nodes, policy, s.Seed, s.HorizonS)
	if s.Arrival != nil {
		fmt.Fprintf(w, "arrivals: %s, %.1f jobs/h, %d generated\n",
			s.Arrival.Process, s.Arrival.RatePerHour, s.Arrival.Jobs)
	}
	mode := "phased activity"
	if s.FixedActivity {
		mode = "fixed activity (ablation)"
	}
	fmt.Fprintf(w, "workload execution: %s\n", mode)
	fmt.Fprintf(w, "jobs: %d total, %d completed, %d failed, %d timeout, %d unfinished at horizon\n",
		len(r.Jobs), r.Completed, r.Failed, r.TimedOut, r.Unfinished)
	if s.Faults != nil {
		// Per-job end-state breakdown in a fixed state order (states with
		// zero jobs are skipped so short campaigns stay readable).
		fmt.Fprint(w, "end states:")
		for _, st := range []sched.JobState{sched.StateCompleted, sched.StateNodeFail,
			sched.StateTimeout, sched.StateCancelled, sched.StateRunning, sched.StatePending} {
			if n := r.EndStates[st]; n > 0 {
				fmt.Fprintf(w, " %s=%d", st, n)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "makespan %.1f s, mean wait %.1f s, mean runtime %.1f s, utilization %.1f%%\n",
		r.MakespanS, r.MeanWaitS, r.MeanRunS, r.UtilizationPct)
	names := make([]string, 0, len(r.PerWorkload))
	for name := range r.PerWorkload {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprint(w, "mix:")
	for _, name := range names {
		fmt.Fprintf(w, " %s=%d", name, r.PerWorkload[name])
	}
	fmt.Fprintln(w)
	if s.Monitor {
		fmt.Fprintf(w, "telemetry: %d broker messages, %d stored series\n", r.BrokerMessages, r.StoredSeries)
	}
	if r.Plane != nil {
		fmt.Fprintf(w, "power plane: budget %.1f W, draw %.1f W, headroom %.1f W, %d node(s) throttled\n",
			r.Plane.BudgetW, r.Plane.DrawW, r.Plane.HeadroomW, r.Plane.ThrottledNodes)
	}
	if f := r.Fault; f != nil {
		fmt.Fprintf(w, "faults: crashes=%d thermal=%d/%d power_steps=%d net_windows=%d stragglers=%d\n",
			f.Crashes, f.Trips, f.ThermalInjects, f.PowerSteps, f.NetWindows, f.StragglerNodes)
		fmt.Fprintf(w, "availability %.2f%%, goodput %.1f%%, requeues %d, repairs %d, mttr %.1f s\n",
			r.AvailabilityPct, r.GoodputPct, r.Requeues, f.Repairs, f.MTTRS)
	}
	headers := []string{"Job", "Workload", "Nodes", "Submit", "Start", "End", "State"}
	if s.Faults != nil {
		headers = append(headers, "Retries")
	}
	tbl := &report.Table{Headers: headers}
	for _, j := range r.Jobs {
		row := []string{j.Name, j.Workload, fmt.Sprintf("%d", j.Nodes),
			fmt.Sprintf("%.1f", j.SubmitS), fmtRel(j.StartS), fmtRel(j.EndS), string(j.State)}
		if s.Faults != nil {
			row = append(row, fmt.Sprintf("%d", j.Requeues))
		}
		tbl.AddRow(row...)
	}
	return tbl.Write(w)
}

// WriteEventLog renders the submit/start/end event lines.
func (r *Result) WriteEventLog(w io.Writer) error {
	for _, line := range r.Events {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// fmtRel prints a campaign-relative instant, "-" for never.
func fmtRel(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}
