package core

import (
	"fmt"
	"math"
	"testing"

	"montecimone/internal/examon"
	"montecimone/internal/power"
	"montecimone/internal/sched"
	"montecimone/internal/workload"
)

// TestPaperArtifactsIdenticalAcrossPhysicsModes proves the demand-driven
// refactor changes nothing the paper reports: Table III, Table IV and the
// Fig. 6 thermal story regenerate identically (at reporting precision)
// under lock-step and demand-driven integration. While thermally active
// both modes walk the same Euler grid, so values agree to floating-point
// dust; quiescent stretches relax in closed form within the 1e-3 degC
// quiescence tolerance, far below any reported digit.
func TestPaperArtifactsIdenticalAcrossPhysicsModes(t *testing.T) {
	t.Run("tableIII", func(t *testing.T) {
		lock, err := tableIII(Options{Nodes: 1, LockStep: true})
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := tableIII(Options{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(lock) != len(lazy) {
			t.Fatalf("row counts differ: %d vs %d", len(lock), len(lazy))
		}
		for i := range lock {
			a := fmt.Sprintf("%s=%.6g", lock[i].Metric, lock[i].Value)
			b := fmt.Sprintf("%s=%.6g", lazy[i].Metric, lazy[i].Value)
			if a != b {
				t.Errorf("row %d differs: lock-step %s, demand-driven %s", i, a, b)
			}
		}
	})
	t.Run("tableIV", func(t *testing.T) {
		lock, err := tableIV(Options{Nodes: 1, NoMonitor: true, LockStep: true})
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := tableIV(Options{Nodes: 1, NoMonitor: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range lock {
			if lock[i].Sensor != lazy[i].Sensor {
				t.Fatalf("sensor order differs at %d", i)
			}
			// Readings are integer millidegrees; allow the last count for
			// rounding of sub-microkelvin float dust.
			if d := lock[i].MilliC - lazy[i].MilliC; d > 1 || d < -1 {
				t.Errorf("%s differs: %d vs %d millidegC", lock[i].Sensor, lock[i].MilliC, lazy[i].MilliC)
			}
		}
	})
	t.Run("fig6", func(t *testing.T) {
		lock, err := fig6(Options{Nodes: 8, Seed: 1, LockStep: true})
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := fig6(Options{Nodes: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if lock.TrippedNode != lazy.TrippedNode {
			t.Errorf("tripped node differs: %s vs %s", lock.TrippedNode, lazy.TrippedNode)
		}
		if lock.TripAt != lazy.TripAt {
			t.Errorf("trip time differs: %v vs %v", lock.TripAt, lazy.TripAt)
		}
		for name, a := range map[string][2]float64{
			"peak before mitigation": {lock.PeakBeforeMitigation, lazy.PeakBeforeMitigation},
			"peak after mitigation":  {lock.PeakAfterMitigation, lazy.PeakAfterMitigation},
		} {
			if fmt.Sprintf("%.1f", a[0]) != fmt.Sprintf("%.1f", a[1]) {
				t.Errorf("%s differs at reporting precision: %.4f vs %.4f", name, a[0], a[1])
			}
		}
	})
}

// TestDemandDrivenMonitoredStepReduction is the acceptance ratio on the
// full system (monitoring plugins as the 2 Hz observers): a settled idle
// partition integrates at least 5x fewer model steps demand-driven than
// lock-step.
func TestDemandDrivenMonitoredStepReduction(t *testing.T) {
	window := func(lockStep bool) uint64 {
		s, err := NewSystem(Options{Nodes: 16, SyntheticSlots: true, LockStep: lockStep})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Boot(); err != nil {
			t.Fatal(err)
		}
		if err := s.Advance(1600); err != nil {
			t.Fatal(err)
		}
		before := s.Cluster.ModelSteps()
		if err := s.Advance(300); err != nil {
			t.Fatal(err)
		}
		return s.Cluster.ModelSteps() - before
	}
	lock := window(true)
	lazy := window(false)
	if lazy == 0 {
		lazy = 1
	}
	ratio := float64(lock) / float64(lazy)
	t.Logf("monitored window steps: lock-step %d, demand-driven %d (%.0fx)", lock, lazy, ratio)
	if ratio < 5 {
		t.Errorf("demand-driven executed only %.1fx fewer steps, want >= 5x", ratio)
	}
}

// TestPowerPlaneBudgetEnforcement exercises the whole power loop through
// the system facade: powercap admission keeps the measured draw at or
// below the budget, delays the second HPL wave instead of co-scheduling
// it, and still completes every job.
func TestPowerPlaneBudgetEnforcement(t *testing.T) {
	const budget = 43.0
	s, err := NewSystem(Options{Nodes: 8, NoMonitor: true, Policy: "powercap", PowerBudgetW: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Cluster.ApplyAirflowMitigation(); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(60); err != nil {
		t.Fatal(err)
	}
	start := s.Engine.Now()
	var jobs []*sched.Job
	for i := 0; i < 2; i++ {
		spec := sched.JobSpec{
			Name: fmt.Sprintf("hpl-%d", i), User: "ops", Nodes: 4,
			TimeLimit: 900, Duration: 600, Workload: workload.MustLookup("hpl"),
			OnStart: func(_ *sched.Job, nodes []int) {
				if err := s.Cluster.RunWorkloadOn(nodes, "hpl", power.ActivityHPL, 13e9); err != nil {
					t.Errorf("workload: %v", err)
				}
			},
			OnEnd: func(j *sched.Job, _ sched.JobState) { s.Cluster.ClearWorkloadOn(j.Nodes()) },
		}
		j, err := s.Scheduler.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Engine.RunUntil(start + 2400); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if j.State() != sched.StateCompleted {
			t.Errorf("job %d state = %s, want COMPLETED (no starvation)", i, j.State())
		}
	}
	// Both 4-node HPL waves together would draw ~43 W of incremental +
	// idle = above budget; powercap must have serialised them.
	if !(jobs[1].StartTime() >= jobs[0].EndTime()-1) {
		t.Errorf("second wave started at %v while first ran until %v — admission did not delay it",
			jobs[1].StartTime(), jobs[0].EndTime())
	}
	// Every plane draw sample stays at or below the budget (small slack
	// for the 1 s control lag on workload clear).
	series := s.DB.Query(examon.Filter{Plugin: "powerplane", Metric: "draw_w", From: start})
	if len(series) != 1 || len(series[0].Points) == 0 {
		t.Fatalf("no powerplane draw telemetry: %v", series)
	}
	maxDraw := 0.0
	for _, p := range series[0].Points {
		if p.V > maxDraw {
			maxDraw = p.V
		}
	}
	if maxDraw > budget {
		t.Errorf("measured draw peaked at %.2f W above the %v W budget", maxDraw, budget)
	}
	// Budget/headroom telemetry is self-consistent.
	bseries := s.DB.Query(examon.Filter{Plugin: "powerplane", Metric: "budget_w", From: start})
	if len(bseries) != 1 || bseries[0].Points[0].V != budget {
		t.Errorf("budget telemetry = %v", bseries)
	}
}

// TestPowerCapPrefersCoolerNodes: with one node pre-heated, a power-aware
// placement lands elsewhere.
func TestPowerCapPrefersCoolerNodes(t *testing.T) {
	s, err := NewSystem(Options{Nodes: 8, NoMonitor: true, Policy: "powercap", PowerBudgetW: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	// Heat mc03 (node 2, a hot centre slot) under direct HPL for a while.
	if err := s.Cluster.RunWorkloadOn([]int{2}, "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(600); err != nil {
		t.Fatal(err)
	}
	s.Cluster.ClearWorkloadOn([]int{2})
	job, err := s.Scheduler.Submit(sched.JobSpec{
		Name: "probe", User: "ops", Nodes: 1, TimeLimit: 60, Duration: 30, Workload: workload.MustLookup("qe"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(5); err != nil {
		t.Fatal(err)
	}
	nodes := job.Nodes()
	if len(nodes) != 1 {
		t.Fatalf("probe not placed: %v (state %s)", nodes, job.State())
	}
	if nodes[0] == 2 {
		t.Errorf("probe landed on the pre-heated node %v", nodes)
	}
	if math.IsInf(s.Plane.NodeTempC(nodes[0]), 1) {
		t.Errorf("advisor has no temperature for node %d", nodes[0])
	}
}
