// Command mcsched demonstrates the SLURM-like batch scheduler on the
// simulated cluster. By default it runs the demo benchmark campaign (HPL,
// STREAM, QE-LAX) and prints squeue/sinfo snapshots and the final
// accounting, including the NODE_FAIL the node-7 thermal hazard produces
// when the campaign runs with the original enclosure. With -campaign it
// instead executes a declarative JSON campaign spec — workload mix,
// arrival process, node count, seed — end to end through the scheduler,
// the cluster physics, the power plane and the telemetry stack, and
// prints the per-campaign report (add -events for the event log).
//
// Usage:
//
//	mcsched [-nodes N] [-mitigated] [-policy fifo|easy|sjf|bestfit|powercap]
//	        [-budget-w W] [-campaign spec.json] [-events] [-no-faults]
//	        [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -cpuprofile and -memprofile write standard pprof profiles covering the
// whole run — the measurement harness behind the engine's hot-path work.
//
// A spec with a "faults" block runs as a chaos campaign: a deterministic,
// seeded fault timeline (node crashes, thermal runaways, brownouts,
// network degradation, stragglers) plays against the machine, NODE_FAIL
// jobs requeue with optional checkpoint/restart, and the report gains
// availability, goodput, retry and MTTR columns. -no-faults strips the
// block — the ablation that reproduces the fault-free report byte for
// byte.
//
// Node counts beyond the paper's eight-slot enclosure run with synthetic
// slots (thermal environments reuse the physical slots cyclically).
// -budget-w enables the cluster power plane (per-node caps distributed
// from the budget by DVFS governors); combined with -policy powercap the
// scheduler also delays placements that would exceed the budget and
// prefers cooler nodes. With -campaign, the -nodes/-policy/-mitigated/
// -budget-w flags override the spec when set explicitly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"montecimone/internal/campaign"
	"montecimone/internal/profiling"
	"montecimone/internal/report"
	"montecimone/internal/sched"
)

func main() {
	nodes := flag.Int("nodes", 8, "compute nodes")
	mitigated := flag.Bool("mitigated", false, "apply the airflow mitigation before the campaign")
	policy := flag.String("policy", "easy", "scheduling policy: "+strings.Join(sched.PolicyNames(), "|"))
	budgetW := flag.Float64("budget-w", 0, "cluster power budget in watts (0 disables the power plane)")
	campaignPath := flag.String("campaign", "", "run this JSON campaign spec instead of the demo campaign")
	events := flag.Bool("events", false, "print the campaign event log after the report (with -campaign)")
	noFaults := flag.Bool("no-faults", false, "strip the spec's fault block (chaos ablation, with -campaign)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcsched:", err)
		os.Exit(1)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *campaignPath != "" {
		err = runSpecFile(os.Stdout, *campaignPath, set, *nodes, *mitigated, *policy, *budgetW, *events, *noFaults)
	} else {
		err = run(os.Stdout, *nodes, *mitigated, *policy, *budgetW)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcsched:", err)
		os.Exit(1)
	}
}

// runSpecFile loads a campaign spec, applies explicit flag overrides and
// runs it end to end, printing the report (and optionally the event log).
func runSpecFile(w io.Writer, path string, set map[string]bool, nodes int, mitigated bool, policy string, budgetW float64, events, noFaults bool) error {
	spec, err := campaign.Load(path)
	if err != nil {
		return err
	}
	if noFaults {
		// The chaos ablation: the same campaign with the fault subsystem
		// fully disarmed renders the exact pre-fault report format.
		spec.Faults = nil
	}
	if set["nodes"] {
		spec.Nodes = nodes
	}
	if set["policy"] {
		spec.Policy = policy
	}
	if set["mitigated"] {
		spec.Mitigated = mitigated
	}
	if set["budget-w"] {
		spec.PowerBudgetW = budgetW
	}
	res, err := campaign.Run(spec)
	if err != nil {
		return err
	}
	if err := res.WriteReport(w); err != nil {
		return err
	}
	if events {
		fmt.Fprintln(w, "\nevent log:")
		return res.WriteEventLog(w)
	}
	return nil
}

// run executes the demo campaign — the default spec on the campaign
// engine — with the command's traditional squeue/sinfo checkpoints.
func run(w io.Writer, nodes int, mitigated bool, policy string, budgetW float64) error {
	spec := campaign.DefaultSpec(nodes, policy, mitigated, budgetW)
	r, err := campaign.NewRunner(spec)
	if err != nil {
		return err
	}
	defer r.Close()
	s := r.System()
	if mitigated {
		fmt.Fprintln(w, "enclosure: lid removed, increased blade spacing (mitigated)")
	} else {
		fmt.Fprintln(w, "enclosure: original 1U lid-on build")
	}
	fmt.Fprintf(w, "scheduler policy: %s\n", s.Scheduler.PolicyName())
	if s.Plane != nil {
		fmt.Fprintf(w, "power plane: budget %.1f W\n", s.Plane.BudgetW())
	}
	// Flush the submission events (all at campaign t=0) before the first
	// snapshot.
	if err := s.Engine.RunUntil(r.StartTime()); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== t=%.0f s: campaign submitted\n", s.Engine.Now())
	printQueue(w, s.Scheduler)

	for _, checkpoint := range []float64{600, 2400, 7200} {
		if err := s.Engine.RunUntil(r.StartTime() + checkpoint); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n== t=%.0f s\n", s.Engine.Now())
		printQueue(w, s.Scheduler)
		printNodes(w, s.Scheduler)
	}

	// Drain whatever is left.
	if err := r.Drain(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== t=%.0f s: final accounting (sacct)\n", s.Engine.Now())
	acct := &report.Table{Headers: []string{"JobID", "Name", "State", "Nodes", "Start", "End", "Policy"}}
	for _, row := range s.Scheduler.Sacct() {
		acct.AddRow(
			fmt.Sprintf("%d", row.ID), row.Name, string(row.State),
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.0f", row.Start), fmt.Sprintf("%.0f", row.End),
			s.Scheduler.PolicyName(),
		)
	}
	if err := acct.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return r.Result().WriteReport(w)
}

func printQueue(w io.Writer, s *sched.Scheduler) {
	t := &report.Table{Headers: []string{"JobID", "Name", "State", "Nodes", "Hosts"}}
	for _, row := range s.Squeue() {
		t.AddRow(fmt.Sprintf("%d", row.ID), row.Name, string(row.State),
			fmt.Sprintf("%d", row.Nodes), fmt.Sprintf("%v", row.Hosts))
	}
	if len(t.Rows) == 0 {
		fmt.Fprintln(w, "squeue: empty")
		return
	}
	_ = t.Write(w)
}

func printNodes(w io.Writer, s *sched.Scheduler) {
	line := "sinfo:"
	for _, row := range s.Sinfo() {
		line += fmt.Sprintf(" %s=%s", row.Host, row.State)
	}
	fmt.Fprintln(w, line)
}
