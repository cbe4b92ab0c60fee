package sched

import (
	"fmt"
	"testing"

	"montecimone/internal/sim"
)

func hosts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("mc%02d", i+1)
	}
	return out
}

func newSched(t *testing.T, n int, opts ...Option) (*sim.Engine, *Scheduler) {
	t.Helper()
	e := sim.NewEngine()
	s, err := New(e, "cimone", hosts(n), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e, s
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	if _, err := New(nil, "p", hosts(2)); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(e, "p", nil); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := New(e, "p", []string{"a", "a"}); err == nil {
		t.Error("duplicate hostname accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, s := newSched(t, 4)
	if _, err := s.Submit(JobSpec{Name: "x", Nodes: 0, TimeLimit: 10, Duration: 1}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := s.Submit(JobSpec{Name: "x", Nodes: 5, TimeLimit: 10, Duration: 1}); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := s.Submit(JobSpec{Name: "x", Nodes: 1, TimeLimit: 0, Duration: 1}); err == nil {
		t.Error("zero time limit accepted")
	}
	if _, err := s.Submit(JobSpec{Name: "x", Nodes: 1, TimeLimit: 10, Duration: -1}); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestSingleJobLifecycle(t *testing.T) {
	e, s := newSched(t, 8)
	var startedHosts []string
	var endState JobState
	job, err := s.Submit(JobSpec{
		Name: "hpl", User: "bench", Nodes: 8, TimeLimit: 100, Duration: 42,
		OnStart: func(_ *Job, h []string) { startedHosts = h },
		OnEnd:   func(_ *Job, st JobState) { endState = st },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if job.State() != StateCompleted {
		t.Errorf("state = %s, want COMPLETED", job.State())
	}
	if len(startedHosts) != 8 {
		t.Errorf("allocated %d hosts", len(startedHosts))
	}
	if endState != StateCompleted {
		t.Errorf("OnEnd state = %s", endState)
	}
	if job.EndTime()-job.StartTime() != 42 {
		t.Errorf("runtime = %v, want 42", job.EndTime()-job.StartTime())
	}
	// Nodes return to idle.
	for _, row := range s.Sinfo() {
		if row.State != NodeIdle {
			t.Errorf("node %s state %s after completion", row.Host, row.State)
		}
	}
}

func TestFIFOOrdering(t *testing.T) {
	e, s := newSched(t, 4, WithPolicy(FIFO()))
	j1, _ := s.Submit(JobSpec{Name: "a", Nodes: 4, TimeLimit: 100, Duration: 10})
	j2, _ := s.Submit(JobSpec{Name: "b", Nodes: 4, TimeLimit: 100, Duration: 10})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if j1.StartTime() != 0 {
		t.Errorf("j1 start = %v", j1.StartTime())
	}
	if j2.StartTime() != 10 {
		t.Errorf("j2 start = %v, want 10 (after j1)", j2.StartTime())
	}
}

func TestTimeout(t *testing.T) {
	e, s := newSched(t, 2)
	job, _ := s.Submit(JobSpec{Name: "long", Nodes: 1, TimeLimit: 5, Duration: 50})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if job.State() != StateTimeout {
		t.Errorf("state = %s, want TIMEOUT", job.State())
	}
	if job.EndTime() != 5 {
		t.Errorf("end = %v, want 5", job.EndTime())
	}
}

func TestBackfillFillsGap(t *testing.T) {
	e, s := newSched(t, 4)
	// j1 occupies 3 nodes for 100 s. j2 (head of queue) needs all 4 and
	// must wait. j3 needs 1 node for 20 s: with its 30 s limit it finishes
	// before j1's wall limit frees the nodes, so backfill starts it now.
	j1, _ := s.Submit(JobSpec{Name: "wide", Nodes: 3, TimeLimit: 100, Duration: 100})
	j2, _ := s.Submit(JobSpec{Name: "huge", Nodes: 4, TimeLimit: 100, Duration: 10})
	j3, _ := s.Submit(JobSpec{Name: "small", Nodes: 1, TimeLimit: 30, Duration: 20})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if j3.StartTime() != 0 {
		t.Errorf("backfill job start = %v, want 0", j3.StartTime())
	}
	if j2.StartTime() < 100 {
		t.Errorf("head job started at %v, before resources free", j2.StartTime())
	}
	_ = j1
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	e, s := newSched(t, 4)
	// j1 holds 3 nodes until t=50 (limit). Head j2 wants 4 nodes -> shadow
	// start t=50. j3 wants 1 node for 200 s: starting it would delay j2
	// beyond its shadow time (and it does not fit in the extra nodes),
	// so it must NOT backfill.
	s.mustSubmit(t, JobSpec{Name: "wide", Nodes: 3, TimeLimit: 50, Duration: 50})
	j2, _ := s.Submit(JobSpec{Name: "head", Nodes: 4, TimeLimit: 50, Duration: 10})
	j3, _ := s.Submit(JobSpec{Name: "greedy", Nodes: 1, TimeLimit: 200, Duration: 200})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if j2.StartTime() != 50 {
		t.Errorf("head start = %v, want 50", j2.StartTime())
	}
	if j3.StartTime() < j2.StartTime() {
		t.Errorf("greedy backfill at %v delayed head (head at %v)", j3.StartTime(), j2.StartTime())
	}
}

// mustSubmit is a test helper asserting submission succeeds.
func (s *Scheduler) mustSubmit(t *testing.T, spec JobSpec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestBackfillDisabled(t *testing.T) {
	e, s := newSched(t, 4, WithPolicy(FIFO()))
	s.mustSubmit(t, JobSpec{Name: "wide", Nodes: 3, TimeLimit: 100, Duration: 100})
	s.mustSubmit(t, JobSpec{Name: "huge", Nodes: 4, TimeLimit: 100, Duration: 10})
	j3 := s.mustSubmit(t, JobSpec{Name: "small", Nodes: 1, TimeLimit: 30, Duration: 20})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if j3.StartTime() == 0 {
		t.Error("job backfilled with backfill disabled")
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	e, s := newSched(t, 2)
	j1 := s.mustSubmit(t, JobSpec{Name: "run", Nodes: 2, TimeLimit: 100, Duration: 100})
	j2 := s.mustSubmit(t, JobSpec{Name: "wait", Nodes: 2, TimeLimit: 100, Duration: 10})
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	if j2.State() != StateCancelled {
		t.Errorf("pending cancel state = %s", j2.State())
	}
	if err := s.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	if j1.State() != StateCancelled {
		t.Errorf("running cancel state = %s", j1.State())
	}
	if err := s.Cancel(j1.ID); err == nil {
		t.Error("double cancel accepted")
	}
	if err := s.Cancel(999); err == nil {
		t.Error("unknown job cancel accepted")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, row := range s.Sinfo() {
		if row.State != NodeIdle {
			t.Errorf("node %s not idle after cancels", row.Host)
		}
	}
}

func TestNodeFailKillsJob(t *testing.T) {
	// The thermal halt of node 7 during HPL surfaces as NODE_FAIL.
	e, s := newSched(t, 8)
	var failed JobState
	job := s.mustSubmit(t, JobSpec{
		Name: "hpl", Nodes: 8, TimeLimit: 1000, Duration: 500,
		OnEnd: func(_ *Job, st JobState) { failed = st },
	})
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if err := s.NodeDown("mc07"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if job.State() != StateNodeFail {
		t.Errorf("state = %s, want NODE_FAIL", job.State())
	}
	if failed != StateNodeFail {
		t.Errorf("OnEnd state = %s", failed)
	}
	// The failed node stays down; others return to idle.
	for _, row := range s.Sinfo() {
		want := NodeIdle
		if row.Host == "mc07" {
			want = NodeDown
		}
		if row.State != want {
			t.Errorf("node %s = %s, want %s", row.Host, row.State, want)
		}
	}
}

func TestNodeFailRequeues(t *testing.T) {
	e, s := newSched(t, 2)
	s.mustSubmit(t, JobSpec{Name: "resilient", Nodes: 2, TimeLimit: 100, Duration: 50, Requeue: true})
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if err := s.NodeDown("mc01"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	// Requeued clone is pending (only 1 node up, needs 2).
	rows := s.Squeue()
	if len(rows) != 1 || rows[0].State != StatePending {
		t.Fatalf("squeue = %+v, want one pending clone", rows)
	}
	if err := s.NodeUp("mc01"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	acct := s.Sacct()
	if len(acct) != 2 {
		t.Fatalf("sacct rows = %d, want 2", len(acct))
	}
	if acct[0].State != StateNodeFail || acct[1].State != StateCompleted {
		t.Errorf("sacct states = %s, %s", acct[0].State, acct[1].State)
	}
}

func TestNodeDownValidation(t *testing.T) {
	_, s := newSched(t, 2)
	if err := s.NodeDown("nope"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := s.NodeUp("nope"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := s.NodeDown("mc01"); err != nil {
		t.Fatal(err)
	}
	if err := s.NodeDown("mc01"); err != nil {
		t.Errorf("idempotent NodeDown failed: %v", err)
	}
}

func TestSqueueAndSinfoViews(t *testing.T) {
	e, s := newSched(t, 4)
	s.mustSubmit(t, JobSpec{Name: "a", User: "u1", Nodes: 4, TimeLimit: 100, Duration: 50})
	s.mustSubmit(t, JobSpec{Name: "b", User: "u2", Nodes: 4, TimeLimit: 100, Duration: 50})
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	rows := s.Squeue()
	if len(rows) != 2 {
		t.Fatalf("squeue rows = %d, want 2", len(rows))
	}
	// Pending first, then running.
	if rows[0].State != StatePending || rows[1].State != StateRunning {
		t.Errorf("squeue order: %s, %s", rows[0].State, rows[1].State)
	}
	allocated := 0
	for _, nr := range s.Sinfo() {
		if nr.State == NodeAlloc {
			allocated++
			if nr.JobID == 0 {
				t.Error("allocated node without job id")
			}
		}
	}
	if allocated != 4 {
		t.Errorf("allocated nodes = %d, want 4", allocated)
	}
	if s.Partition() != "cimone" {
		t.Errorf("partition = %q", s.Partition())
	}
}

func TestManyJobsDrainDeterministically(t *testing.T) {
	run := func() []float64 {
		e, s := newSched(t, 8)
		var jobs []*Job
		for i := 0; i < 20; i++ {
			j := s.mustSubmit(t, JobSpec{
				Name:      fmt.Sprintf("j%d", i),
				Nodes:     1 + i%4,
				TimeLimit: 100 + float64(i),
				Duration:  10 + float64(i%7)*5,
			})
			jobs = append(jobs, j)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		starts := make([]float64, len(jobs))
		for i, j := range jobs {
			if j.State() != StateCompleted {
				t.Fatalf("job %d state %s", j.ID, j.State())
			}
			starts[i] = j.StartTime()
		}
		return starts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d start differs: %v vs %v", i, a[i], b[i])
		}
	}
}
