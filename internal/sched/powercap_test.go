package sched

import (
	"fmt"
	"testing"

	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/workload"
)

// fakeAdvisor is a deterministic PowerAdvisor for scheduler-level tests.
type fakeAdvisor struct {
	perNodeW   float64
	headroomW  float64
	temps      map[int]float64
	placements []string
	reads      []int     // NodeTempC calls, in order
	onRead     func(int) // runs inside each NodeTempC call, when set
}

func (f *fakeAdvisor) PredictedJobWatts(act power.Activity, nodes int) float64 {
	return float64(nodes) * f.perNodeW
}
func (f *fakeAdvisor) HeadroomWatts() float64 { return f.headroomW }
func (f *fakeAdvisor) NodeTempC(i int) float64 {
	f.reads = append(f.reads, i)
	if f.onRead != nil {
		f.onRead(i)
	}
	if t, ok := f.temps[i]; ok {
		return t
	}
	return 50
}
func (f *fakeAdvisor) NotePlacement(act power.Activity, nodes int) {
	f.placements = append(f.placements, fmt.Sprintf("%.3f/%d", act.CoreActivity, nodes))
}

// TestPowerCapDelaysOverBudgetHead: a job whose predicted draw exceeds
// headroom waits while other work runs, starts once headroom returns via
// Reschedule, and placements are reported to the advisor.
func TestPowerCapDelaysOverBudgetHead(t *testing.T) {
	e := sim.NewEngine()
	adv := &fakeAdvisor{perNodeW: 2, headroomW: 5}
	s, err := New(e, hosts(8), WithPolicy(PowerCap()), WithPowerAdvisor(adv))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(JobSpec{Name: "a", Nodes: 2, TimeLimit: 100, Duration: 50, Workload: workload.MustLookup("hpl")})
	if err != nil {
		t.Fatal(err)
	}
	// 4 nodes x 2 W = 8 W > 5 W headroom: must wait even though nodes are
	// free.
	second, err := s.Submit(JobSpec{Name: "b", Nodes: 4, TimeLimit: 100, Duration: 50, Workload: workload.MustLookup("hpl")})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if first.State() != StateRunning {
		t.Fatalf("first job state = %s", first.State())
	}
	if second.State() != StatePending {
		t.Fatalf("over-budget job state = %s, want PENDING", second.State())
	}
	// Headroom returns (the plane would call Reschedule on its control
	// tick).
	adv.headroomW = 20
	s.Reschedule()
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if second.State() != StateRunning {
		t.Fatalf("job still %s after headroom returned", second.State())
	}
	if len(adv.placements) != 2 || adv.placements[0] != "0.465/2" || adv.placements[1] != "0.465/4" {
		t.Errorf("placements reported = %v", adv.placements)
	}
}

// TestPowerCapForcedProgress: an over-budget head is admitted when
// nothing is running, so the queue can never deadlock on the budget.
func TestPowerCapForcedProgress(t *testing.T) {
	e := sim.NewEngine()
	adv := &fakeAdvisor{perNodeW: 10, headroomW: 0}
	s, err := New(e, hosts(4), WithPolicy(PowerCap()), WithPowerAdvisor(adv))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(JobSpec{Name: "big", Nodes: 4, TimeLimit: 50, Duration: 10, Workload: workload.MustLookup("hpl")})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if job.State() != StateRunning {
		t.Fatalf("idle-cluster job state = %s, want RUNNING (forced progress)", job.State())
	}
}

// TestPowerCapPicksCoolestHosts: allocation prefers the coolest idle
// nodes, stable on ties.
func TestPowerCapPicksCoolestHosts(t *testing.T) {
	e := sim.NewEngine()
	adv := &fakeAdvisor{perNodeW: 0, headroomW: 100, temps: map[int]float64{
		0: 70, 1: 40, 2: 55, 3: 35,
	}}
	s, err := New(e, hosts(4), WithPolicy(PowerCap()), WithPowerAdvisor(adv))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(JobSpec{Name: "cool", Nodes: 2, TimeLimit: 50, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	got := job.Nodes()
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("nodes = %v, want [3 1] (coolest first)", got)
	}
}

// TestPowerCapReadsEachIdleNodeOnce: placement reads every idle node's
// temperature exactly once, in partition order, even when a read halts
// an idle node (a read integrates the node, and the halt's NodeDown
// shifts the scheduler's idle slice mid-pass).
func TestPowerCapReadsEachIdleNodeOnce(t *testing.T) {
	e := sim.NewEngine()
	adv := &fakeAdvisor{perNodeW: 0, headroomW: 100, temps: map[int]float64{
		0: 60, 1: 58, 2: 30, 3: 45, 4: 40, 5: 50,
	}}
	s, err := New(e, hosts(6), WithPolicy(PowerCap()), WithPowerAdvisor(adv))
	if err != nil {
		t.Fatal(err)
	}
	adv.onRead = func(i int) {
		if i == 1 {
			s.NodeDown(0) // the hottest node halts during the pass
		}
	}
	job, err := s.Submit(JobSpec{Name: "cool", Nodes: 2, TimeLimit: 50, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(adv.reads), "[0 1 2 3 4 5]"; got != want {
		t.Errorf("temperature reads = %s, want %s", got, want)
	}
	if got := job.Nodes(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("nodes = %v, want [2 4] (coolest first)", got)
	}
}

// TestPowerCapWithoutAdvisorIsFIFO: no advisor, no gating — the policy
// degrades to plain FIFO placement in partition order.
func TestPowerCapWithoutAdvisorIsFIFO(t *testing.T) {
	e := sim.NewEngine()
	s, err := New(e, hosts(4), WithPolicy(PowerCap()))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(JobSpec{Name: "plain", Nodes: 2, TimeLimit: 50, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	got := job.Nodes()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("nodes = %v, want partition order", got)
	}
}
