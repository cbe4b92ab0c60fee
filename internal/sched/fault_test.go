package sched

// Regression tests for the fault-campaign scheduler surface: the NodeUp
// reschedule kick, bounded NODE_FAIL requeueing, the OnRequeue hook and
// the runtime-stretch scaler.

import (
	"testing"
)

// TestNodeUpKicksScheduler pins the recovery kick: a job that is pending
// only because every node is down must start as soon as NodeUp returns a
// node to service, with no other scheduler activity in between.
func TestNodeUpKicksScheduler(t *testing.T) {
	e, s := newSched(t, 2)
	s.NodeDown(0)
	s.NodeDown(1)
	started := false
	s.mustSubmit(t, JobSpec{Name: "waiter", Nodes: 1, TimeLimit: 100, Duration: 10,
		OnStart: func(*Job, []int) { started = true }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started {
		t.Fatal("job started with every node down")
	}
	s.NodeUp(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !started {
		t.Fatal("NodeUp did not kick the pending job into service")
	}
}

// TestRequeueBounded exercises the retry budget: MaxRequeues=2 allows
// exactly three attempts (the original plus two requeues), each ending in
// NODE_FAIL, and the third failure is final.
func TestRequeueBounded(t *testing.T) {
	e, s := newSched(t, 1)
	fails, attempts := 0, []int{}
	var lastState JobState
	s.mustSubmit(t, JobSpec{Name: "victim", Nodes: 1, TimeLimit: 1000, Duration: 500,
		Requeue: true, MaxRequeues: 2,
		OnStart: func(j *Job, _ []int) { attempts = append(attempts, j.Attempt()) },
		OnEnd: func(_ *Job, st JobState) {
			fails++
			lastState = st
		}})
	for i := 0; i < 4; i++ { // one more crash than the budget allows
		if err := e.RunUntil(100 * float64(i+1)); err != nil {
			t.Fatal(err)
		}
		s.NodeDown(0)
		s.NodeUp(0)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fails != 3 || lastState != StateNodeFail {
		t.Fatalf("got %d NODE_FAIL endings (last %s), want 3 attempts all NODE_FAIL", fails, lastState)
	}
	if len(attempts) != 3 || attempts[0] != 0 || attempts[1] != 1 || attempts[2] != 2 {
		t.Fatalf("attempt numbering = %v, want [0 1 2]", attempts)
	}
}

// TestOnRequeueMutatesClone checks the checkpoint hook contract: the
// requeued clone runs with whatever spec OnRequeue left behind (here a
// shortened duration standing in for a restart from checkpoint).
func TestOnRequeueMutatesClone(t *testing.T) {
	e, s := newSched(t, 1)
	var start, end float64
	done := false
	s.mustSubmit(t, JobSpec{Name: "ckpt", Nodes: 1, TimeLimit: 1000, Duration: 500,
		Requeue: true, MaxRequeues: 3,
		OnRequeue: func(failed *Job, next *JobSpec) {
			if failed.Attempt() != 0 {
				t.Fatalf("unexpected requeue of attempt %d", failed.Attempt())
			}
			next.Duration = 40 // resume near the end
		},
		OnStart: func(j *Job, _ []int) { start = e.Now() },
		OnEnd: func(_ *Job, st JobState) {
			if st == StateCompleted {
				end = e.Now()
				done = true
			}
		}})
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	s.NodeDown(0)
	s.NodeUp(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("requeued clone never completed")
	}
	if got := end - start; got != 40 {
		t.Fatalf("clone ran %.1f s, want the mutated 40 s duration", got)
	}
}

// TestRuntimeScalerStretchesIntoTimeout: a 3x stretch pushes a job past
// its wall limit, so it ends in TIMEOUT at exactly the limit, and the job
// reports the applied scale.
func TestRuntimeScalerStretchesIntoTimeout(t *testing.T) {
	e, s := newSched(t, 1)
	s.SetRuntimeScaler(func(*Job, []int) float64 { return 3 })
	var scale float64
	var start, end float64
	var final JobState
	s.mustSubmit(t, JobSpec{Name: "slow", Nodes: 1, TimeLimit: 20, Duration: 10,
		OnStart: func(j *Job, _ []int) { start, scale = e.Now(), j.RuntimeScale() },
		OnEnd:   func(_ *Job, st JobState) { end, final = e.Now(), st }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if scale != 3 {
		t.Fatalf("RuntimeScale = %v, want 3", scale)
	}
	if final != StateTimeout || end-start != 20 {
		t.Fatalf("job ended %s after %.1f s, want TIMEOUT at the 20 s wall limit", final, end-start)
	}
}

// TestRuntimeScalerSetterEquivalent: a sub-limit stretch installed with
// SetRuntimeScaler lengthens the run without tripping the limit.
func TestRuntimeScalerSetterEquivalent(t *testing.T) {
	e, s := newSched(t, 1)
	s.SetRuntimeScaler(func(*Job, []int) float64 { return 1.5 })
	var start, end float64
	var final JobState
	s.mustSubmit(t, JobSpec{Name: "slowish", Nodes: 1, TimeLimit: 20, Duration: 10,
		OnStart: func(*Job, []int) { start = e.Now() },
		OnEnd:   func(_ *Job, st JobState) { end, final = e.Now(), st }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if final != StateCompleted || end-start != 15 {
		t.Fatalf("job ended %s after %.1f s, want COMPLETED after 15 s", final, end-start)
	}
}
