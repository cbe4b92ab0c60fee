package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"montecimone/internal/sim"
)

// The seed's reservation() fell through to shadow=Now(), extra=0 when the
// head could never fit (e.g. downed nodes), which silently blocked every
// backfill candidate. The fixed code returns a +Inf shadow instead: a head
// that is not starting cannot be delayed.
func TestReservationDownNodesSentinel(t *testing.T) {
	_, s := newSched(t, 4)
	s.NodeDown(2)
	s.NodeDown(3)
	head := s.mustSubmit(t, JobSpec{Name: "head", Nodes: 4, TimeLimit: 100, Duration: 10})
	shadow, extra := s.reservation(head)
	if !math.IsInf(shadow, 1) {
		t.Errorf("shadow = %v, want +Inf", shadow)
	}
	if extra != 0 {
		t.Errorf("extra = %d, want 0", extra)
	}
}

func TestBackfillProceedsWhenHeadCanNeverFit(t *testing.T) {
	e, s := newSched(t, 4)
	// 2 idle + 2 down; the head wants 4 and can never start until a
	// NodeUp. The small job must still backfill (regression: the seed
	// starved it).
	s.NodeDown(2)
	s.NodeDown(3)
	head := s.mustSubmit(t, JobSpec{Name: "head", Nodes: 4, TimeLimit: 100, Duration: 10})
	small := s.mustSubmit(t, JobSpec{Name: "small", Nodes: 1, TimeLimit: 1000, Duration: 300})
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if small.State() != StateRunning || small.StartTime() != 0 {
		t.Fatalf("small job state %s start %v, want running since 0", small.State(), small.StartTime())
	}
	if head.State() != StatePending {
		t.Fatalf("head state %s, want PENDING", head.State())
	}
	s.NodeUp(2)
	s.NodeUp(3)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// With the nodes back at t=5 the head still waits for small's node:
	// 3 idle until small completes at t=300.
	if head.StartTime() != 300 {
		t.Errorf("head start = %v, want 300", head.StartTime())
	}
	if head.State() != StateCompleted {
		t.Errorf("head state = %s", head.State())
	}
}

// A candidate admitted because it ends before the shadow time returns its
// nodes before the head needs them, so it must not consume the spare-node
// budget (regression: the seed decremented extra whenever the candidate
// also happened to fit it, starving later legitimate backfill).
func TestBackfillExtraNotDoubleCounted(t *testing.T) {
	e, s := newSched(t, 4)
	// j1 holds 2 nodes until its 100 s limit. The head wants 3, so
	// shadow=100 and extra=1. Candidate a (1 node, 10 s limit) ends
	// before the shadow; candidate b (1 node, 200 s limit) needs the one
	// spare node. Both must start immediately.
	s.mustSubmit(t, JobSpec{Name: "j1", Nodes: 2, TimeLimit: 100, Duration: 100})
	head := s.mustSubmit(t, JobSpec{Name: "head", Nodes: 3, TimeLimit: 100, Duration: 10})
	a := s.mustSubmit(t, JobSpec{Name: "a", Nodes: 1, TimeLimit: 10, Duration: 10})
	b := s.mustSubmit(t, JobSpec{Name: "b", Nodes: 1, TimeLimit: 200, Duration: 150})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.StartTime() != 0 {
		t.Errorf("a start = %v, want 0", a.StartTime())
	}
	if b.StartTime() != 0 {
		t.Errorf("b start = %v, want 0 (spare-node budget was double-counted)", b.StartTime())
	}
	// b runs past the shadow on the spare node without delaying the head.
	if head.StartTime() != 100 {
		t.Errorf("head start = %v, want 100", head.StartTime())
	}
}

func TestCancelRequeuedClone(t *testing.T) {
	e, s := newSched(t, 2)
	s.mustSubmit(t, JobSpec{Name: "r", Nodes: 2, TimeLimit: 100, Duration: 50, Requeue: true})
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	s.NodeDown(0)
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	rows := s.Squeue()
	if len(rows) != 1 || rows[0].State != StatePending {
		t.Fatalf("squeue = %+v, want one pending clone", rows)
	}
	clone, ok := s.Job(rows[0].ID)
	if !ok {
		t.Fatalf("clone %d not registered", rows[0].ID)
	}
	if err := s.Cancel(clone.ID); err != nil {
		t.Fatalf("cancel requeued clone: %v", err)
	}
	if clone.State() != StateCancelled {
		t.Errorf("clone state = %s, want CANCELLED", clone.State())
	}
	if got := len(s.Squeue()); got != 0 {
		t.Errorf("squeue rows = %d after cancel, want 0", got)
	}
	s.NodeUp(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	acct := s.Sacct()
	if len(acct) != 2 || acct[0].State != StateNodeFail || acct[1].State != StateCancelled {
		t.Errorf("sacct = %+v, want NODE_FAIL then CANCELLED", acct)
	}
}

func TestNodeUpStartsBlockedHead(t *testing.T) {
	e, s := newSched(t, 2)
	s.NodeDown(1)
	j := s.mustSubmit(t, JobSpec{Name: "wide", Nodes: 2, TimeLimit: 50, Duration: 20})
	if err := e.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	if j.State() != StatePending {
		t.Fatalf("job state %s with a node down, want PENDING", j.State())
	}
	s.NodeUp(1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if j.StartTime() != 30 {
		t.Errorf("start = %v, want 30 (the NodeUp re-kick)", j.StartTime())
	}
	if j.State() != StateCompleted {
		t.Errorf("state = %s", j.State())
	}
}

func TestSubmitDuringOnEnd(t *testing.T) {
	e, s := newSched(t, 2)
	var follow *Job
	s.mustSubmit(t, JobSpec{
		Name: "first", Nodes: 2, TimeLimit: 100, Duration: 30,
		OnEnd: func(*Job, JobState) {
			j, err := s.Submit(JobSpec{Name: "second", Nodes: 2, TimeLimit: 100, Duration: 10})
			if err != nil {
				t.Errorf("submit during OnEnd: %v", err)
				return
			}
			follow = j
		},
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if follow == nil {
		t.Fatal("OnEnd submission did not happen")
	}
	submit := s.Sacct()[follow.ID-1].Submit // sacct rows are by job id, from 1
	if submit != 30 || follow.StartTime() != 30 {
		t.Errorf("follow submit/start = %v/%v, want 30/30", submit, follow.StartTime())
	}
	if follow.State() != StateCompleted {
		t.Errorf("follow state = %s", follow.State())
	}
}

// The linear-scan reference must schedule identically to the bitset free
// set under every policy, on one bitset word and on three (the last
// partial): every job's start time and allocation, and under powercap
// (on a fake advisor whose gate bites and whose temperatures tie) the
// temperature reads too. Only the data-structure costs differ.
func TestLinearScanMatchesIndexed(t *testing.T) {
	run := func(n int, policy string, opts ...Option) (runs []string, reads []int) {
		pol, err := PolicyByName(policy)
		if err != nil {
			t.Fatal(err)
		}
		adv := &fakeAdvisor{perNodeW: 1, headroomW: float64(n / 2), temps: map[int]float64{}}
		for i := 0; i < n; i++ {
			adv.temps[i] = 40 + float64((i*7)%5)
		}
		e := sim.NewEngine()
		s, err := New(e, hosts(n), append(opts, WithPolicy(pol), WithPowerAdvisor(adv))...)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*Job
		for i := 0; i < 30; i++ {
			j, err := s.Submit(JobSpec{
				Name:      "j",
				Nodes:     1 + (i*3)%7*n/8,
				TimeLimit: 40 + float64(i%5)*30,
				Duration:  20 + float64(i%9)*10,
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for _, down := range []int{4, n/2 + 1, n - 1} {
			down := down
			if _, err := e.ScheduleAt(60, "down", func(*sim.Engine) { s.NodeDown(down) }); err != nil {
				t.Fatal(err)
			}
			if _, err := e.ScheduleAt(200, "up", func(*sim.Engine) { s.NodeUp(down) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			runs = append(runs, fmt.Sprintf("%s at %v on %v", j.State(), j.StartTime(), j.Nodes()))
		}
		return runs, adv.reads
	}
	for _, n := range []int{8, 130} {
		for _, policy := range PolicyNames() {
			t.Run(fmt.Sprintf("%s/%dnodes", policy, n), func(t *testing.T) {
				indexed, indexedReads := run(n, policy)
				linear, linearReads := run(n, policy, WithLinearScan(true))
				for i := range indexed {
					if indexed[i] != linear[i] {
						t.Errorf("job %d: indexed %s, linear %s", i+1, indexed[i], linear[i])
					}
				}
				if !slices.Equal(indexedReads, linearReads) {
					t.Errorf("temperature reads differ: indexed %d, linear %d", len(indexedReads), len(linearReads))
				}
			})
		}
	}
}

// An OnStart callback may cancel a job that is still pending in the same
// scheduling pass; the pass must not start it from its stale priority
// snapshot (regression: the cancelled job ran to COMPLETED).
func TestCancelDuringOnStart(t *testing.T) {
	e, s := newSched(t, 4)
	var victim *Job
	s.mustSubmit(t, JobSpec{
		Name: "canceller", Nodes: 1, TimeLimit: 50, Duration: 20,
		OnStart: func(*Job, []int) {
			if err := s.Cancel(victim.ID); err != nil {
				t.Errorf("cancel during OnStart: %v", err)
			}
		},
	})
	victim = s.mustSubmit(t, JobSpec{Name: "victim", Nodes: 1, TimeLimit: 50, Duration: 20})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if victim.State() != StateCancelled {
		t.Errorf("victim state = %s, want CANCELLED", victim.State())
	}
	if victim.StartTime() != 0 || len(victim.Nodes()) != 0 {
		t.Errorf("victim ran anyway: start %v nodes %v", victim.StartTime(), victim.Nodes())
	}
}
