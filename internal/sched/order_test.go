package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"montecimone/internal/sim"
)

// Model tests for the state the scheduler keeps in order as it changes
// instead of sorting it on every pass: the pending queue in the policy's
// priority order, and the running jobs' releases by (time, job id).

// churn drives a 12-node scheduler under the given policy through a
// random stream of submissions (wall limits drawn from three values, so
// priorities and release times tie; some submitted from OnStart inside a
// pass, some requeued on NODE_FAIL), cancels of pending and running jobs,
// node failures and recoveries, all at whole-second instants so events
// share instants. It calls check before the first event and after every
// engine event.
func churn(t *testing.T, seed int64, policy Policy, check func(s *Scheduler)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e, s := newSched(t, 12, WithPolicy(policy))
	var submit func()
	submit = func() {
		limit := float64(10 * (1 + rng.Intn(3)))
		spec := JobSpec{
			Name:      "j",
			Nodes:     1 + rng.Intn(6),
			TimeLimit: limit,
			Duration:  float64(rng.Intn(int(limit * 1.5))),
			Requeue:   rng.Intn(3) == 0,
		}
		if rng.Intn(4) == 0 {
			spec.OnStart = func(*Job, []int) { submit() }
		}
		s.mustSubmit(t, spec)
	}
	for k := 0; k < 150; k++ {
		var op func(*sim.Engine)
		switch arg := rng.Intn(12); rng.Intn(5) {
		case 0, 1:
			op = func(*sim.Engine) { submit() }
		case 2:
			op = func(*sim.Engine) { _ = s.Cancel(1 + rng.Intn(s.nextID)) } // finished and unknown ids fail
		case 3:
			op = func(*sim.Engine) { s.NodeDown(arg) }
		case 4:
			op = func(*sim.Engine) { s.NodeUp(arg) }
		}
		if _, err := e.ScheduleAt(float64(rng.Intn(150)), "op", op); err != nil {
			t.Fatal(err)
		}
	}
	check(s)
	for e.Step() {
		check(s)
	}
}

// checkQueueOrder fails unless squeue's pending rows are the pending jobs
// in id (submission) order, stable-sorted by the policy's Less.
func checkQueueOrder(t *testing.T, s *Scheduler) {
	t.Helper()
	var want []*Job
	for id := 1; id < s.nextID; id++ {
		if j, ok := s.jobs[id]; ok && j.state == StatePending {
			want = append(want, j)
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return s.policy.Less(want[a], want[b]) })
	var got []int
	for _, row := range s.Squeue() {
		if row.State == StatePending {
			got = append(got, row.ID)
		}
	}
	wantIDs := make([]int, len(want))
	for i, j := range want {
		wantIDs[i] = j.ID
	}
	if !slices.Equal(got, wantIDs) {
		t.Fatalf("at t=%v: squeue pending %v, stable sort %v", s.engine.Now(), got, wantIDs)
	}
}

// churnEveryPolicy runs churn under every policy for 20 seeds.
func churnEveryPolicy(t *testing.T, check func(t *testing.T, s *Scheduler)) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				policy, err := PolicyByName(name)
				if err != nil {
					t.Fatal(err)
				}
				churn(t, seed, policy, func(s *Scheduler) { check(t, s) })
			}
		})
	}
}

func TestQueueMatchesStableSortModel(t *testing.T) {
	churnEveryPolicy(t, checkQueueOrder)
}

func TestReleasesMatchRescanModel(t *testing.T) {
	churnEveryPolicy(t, func(t *testing.T, s *Scheduler) {
		if want := s.rescanReleases(); !slices.Equal(s.releases, want) {
			t.Fatalf("at t=%v: releases %v, rescan %v", s.engine.Now(), s.releases, want)
		}
	})
}
