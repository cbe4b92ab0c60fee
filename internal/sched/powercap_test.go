package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// TestPowerCapSkipsNodeDownedDuringReads: the coolest idle node halts
// while the placement reads temperatures; the allocation skips it and
// takes the next-coolest idle node instead of handing the scheduler a
// node that is down (regression: the scheduler panicked on a non-idle
// pick).
func TestPowerCapSkipsNodeDownedDuringReads(t *testing.T) {
	e := sim.NewEngine()
	adv := &fakeAdvisor{perNodeW: 0, headroomW: 100, temps: map[int]float64{
		0: 30, 1: 40, 2: 50, 3: 45,
	}}
	s, err := New(e, hosts(4), WithPolicy(PowerCap()), WithPowerAdvisor(adv))
	if err != nil {
		t.Fatal(err)
	}
	adv.onRead = func(i int) {
		if i == 1 {
			s.NodeDown(0)
		}
	}
	job, err := s.Submit(JobSpec{Name: "cool", Nodes: 2, TimeLimit: 50, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if got := job.Nodes(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("nodes = %v, want [1 3] (coolest idle first, node 0 down)", got)
	}
}

// TestPowerCapWaitsWhenReadsLeaveTooFewNodes: a job that needs every idle
// node loses one to a halt during the placement's reads; it stays pending
// instead of starting on a down node, and starts once the node is back.
func TestPowerCapWaitsWhenReadsLeaveTooFewNodes(t *testing.T) {
	e := sim.NewEngine()
	adv := &fakeAdvisor{perNodeW: 0, headroomW: 100, temps: map[int]float64{0: 30}}
	s, err := New(e, hosts(4), WithPolicy(PowerCap()), WithPowerAdvisor(adv))
	if err != nil {
		t.Fatal(err)
	}
	halted := false
	adv.onRead = func(i int) {
		if i == 1 && !halted {
			halted = true
			s.NodeDown(0)
		}
	}
	job, err := s.Submit(JobSpec{Name: "all", Nodes: 4, TimeLimit: 50, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScheduleAt(5, "up", func(*sim.Engine) { s.NodeUp(0) }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if job.State() != StatePending {
		t.Fatalf("job state = %s with node 0 down, want PENDING", job.State())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if job.State() != StateCompleted || job.StartTime() != 5 {
		t.Errorf("job %s, started at %v; want COMPLETED, started at 5", job.State(), job.StartTime())
	}
	if got := fmt.Sprint(job.Nodes()); got != "[0 1 2 3]" {
		t.Errorf("nodes = %s, want [0 1 2 3] (coolest first)", got)
	}
}

// tempTable is a PowerAdvisor that admits everything and reads node i's
// temperature from element i, without allocating.
type tempTable []float64

func (tempTable) PredictedJobWatts(power.Activity, int) float64 { return 0 }
func (tempTable) HeadroomWatts() float64                        { return 0 }
func (t tempTable) NodeTempC(i int) float64                     { return t[i] }
func (tempTable) NotePlacement(power.Activity, int)             {}

// TestCoolestMatchesStableSort: PickHosts picks the same nodes in the
// same order as a stable sort by temperature over the ascending idle set,
// for every k, with many tied temperatures, on partitions of up to three
// bitset words with random nodes busy.
func TestCoolestMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(140)
		temps := make(tempTable, n)
		for i := range temps {
			temps[i] = 30 + float64(rng.Intn(8))/2
		}
		free := newBitsetFree(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				free.Remove(i)
			}
		}
		if free.Len() == 0 {
			continue
		}
		sorted := free.AppendAll(nil)
		sort.SliceStable(sorted, func(a, b int) bool { return temps[sorted[a]] < temps[sorted[b]] })
		k := 1 + rng.Intn(free.Len())
		p := &powercapPolicy{advisor: temps}
		got := p.PickHosts(free, &Job{Spec: JobSpec{Nodes: k}})
		if !slices.Equal(got, sorted[:k]) {
			t.Fatalf("n=%d k=%d: PickHosts %v, stable sort %v", n, k, got, sorted[:k])
		}
	}
}

// TestPowerCapPickAllocatesOnlyTheResult: once its scratch has grown, a
// pick allocates the returned slice the job owns and nothing else.
func TestPowerCapPickAllocatesOnlyTheResult(t *testing.T) {
	temps := make(tempTable, 130)
	for i := range temps {
		temps[i] = float64((i * 37) % 11)
	}
	p := &powercapPolicy{advisor: temps}
	free := newBitsetFree(len(temps))
	job := &Job{Spec: JobSpec{Nodes: 16}}
	p.PickHosts(free, job)
	if allocs := testing.AllocsPerRun(100, func() { p.PickHosts(free, job) }); allocs != 1 {
		t.Errorf("PickHosts allocated %v times a pick, want 1 (the result)", allocs)
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
