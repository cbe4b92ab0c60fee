package sched

import (
	"fmt"
	"testing"

	"montecimone/internal/sim"
)

// Conformance suite: every registered policy must (1) never allocate a
// node to two jobs at once, (2) run every job of a finite workload to a
// terminal state (no starvation), surviving a mid-run node failure and
// recovery, and (3) schedule deterministically, on the bitset free set and
// identically on the linear-scan reference. The EASY policy's
// bit-for-bit reproduction of the seed scheduler is additionally pinned by
// the start-time assertions in sched_test.go, which predate the policy
// engine and run unchanged.
func TestPolicyConformance(t *testing.T) {
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			first := conformanceRun(t, name)
			for _, again := range []struct {
				what string
				opts []Option
			}{{"across runs", nil}, {"on the linear scan", []Option{WithLinearScan(true)}}} {
				second := conformanceRun(t, name, again.opts...)
				if len(first) != len(second) {
					t.Fatalf("job counts differ %s: %d vs %d", again.what, len(first), len(second))
				}
				for i := range first {
					if first[i] != second[i] {
						t.Errorf("job %d start differs %s: %v vs %v", i+1, again.what, first[i], second[i])
					}
				}
			}
		})
	}
}

// conformanceRun drives one deterministic mixed campaign under the named
// policy and returns the per-job start times (by job id).
func conformanceRun(t *testing.T, policy string, opts ...Option) []float64 {
	t.Helper()
	pol, err := PolicyByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	s, err := New(e, hosts(16), append(opts, WithPolicy(pol))...)
	if err != nil {
		t.Fatal(err)
	}
	// busy tracks our own view of node occupancy to catch double
	// allocation independently of the scheduler's bookkeeping.
	busy := make(map[int]int)
	for i := 0; i < 60; i++ {
		i := i
		width := 1 + (i*5)%11
		if i%9 == 0 {
			width = 12 // wide blockers force backfill decisions
		}
		dur := 20 + float64((i*13)%97)
		spec := JobSpec{
			Name:      fmt.Sprintf("c%02d", i),
			Nodes:     width,
			TimeLimit: dur + 10 + float64(i%3)*40,
			Duration:  dur,
			Requeue:   i%4 == 0,
			OnStart: func(j *Job, nodes []int) {
				for _, n := range nodes {
					if owner, taken := busy[n]; taken {
						t.Errorf("policy %s: node %d allocated to job %d while job %d holds it", policy, n, j.ID, owner)
					}
					busy[n] = j.ID
				}
			},
			OnEnd: func(j *Job, _ JobState) {
				for _, n := range j.Nodes() {
					if busy[n] == j.ID {
						delete(busy, n)
					}
				}
			},
		}
		// Stagger submissions so arrivals interleave with completions.
		if _, err := e.ScheduleAt(float64(i)*3, "submit", func(*sim.Engine) {
			if _, err := s.Submit(spec); err != nil {
				t.Errorf("submit %s: %v", spec.Name, err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ScheduleAt(100, "down", func(*sim.Engine) { s.NodeDown(2) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScheduleAt(400, "up", func(*sim.Engine) { s.NodeUp(2) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rows := s.Sacct()
	starts := make([]float64, 0, len(rows))
	for _, row := range rows {
		switch row.State {
		case StatePending, StateRunning:
			t.Errorf("policy %s: job %d (%s) still %s after drain — starvation", policy, row.ID, row.Name, row.State)
		}
		starts = append(starts, row.Start)
	}
	if len(busy) != 0 {
		t.Errorf("policy %s: %d nodes still marked busy after drain", policy, len(busy))
	}
	return starts
}
