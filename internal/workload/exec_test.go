package workload

import (
	"fmt"
	"testing"

	"montecimone/internal/power"
	"montecimone/internal/sim"
)

// recorder is a NodeOps capturing every installation for assertions.
type recorder struct {
	engine *sim.Engine
	log    []string
	active map[int]power.Activity
}

func newRecorder(e *sim.Engine) *recorder {
	return &recorder{engine: e, active: make(map[int]power.Activity)}
}

func (r *recorder) RunWorkloadOn(nodes []int, name string, act power.Activity, mem float64) error {
	r.log = append(r.log, fmt.Sprintf("t=%.0f run %s on %v", r.engine.Now(), name, nodes))
	for _, n := range nodes {
		r.active[n] = act
	}
	return nil
}

func (r *recorder) ClearWorkloadOn(nodes []int) {
	r.log = append(r.log, fmt.Sprintf("t=%.0f clear %v", r.engine.Now(), nodes))
	for _, n := range nodes {
		delete(r.active, n)
	}
}

// A phased model must walk its cycle on the engine: hpl installs
// panel -> bcast -> update -> panel... at the phase boundaries, and Stop
// cancels the pending transition and clears the nodes.
func TestPhasedExecutionCycles(t *testing.T) {
	e := sim.NewEngine()
	rec := newRecorder(e)
	m := MustLookup("hpl")
	ex, err := Start(e, rec, m, []int{0, 1}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Phase(); got != "panel" {
		t.Errorf("initial phase %q, want panel", got)
	}
	if err := e.RunUntil(m.CycleSeconds() + 1); err != nil { // 31 s: one full cycle + 1 s
		t.Fatal(err)
	}
	want := []string{
		"t=0 run hpl/panel on [0 1]",
		"t=6 run hpl/bcast on [0 1]",
		"t=9 run hpl/update on [0 1]",
		"t=30 run hpl/panel on [0 1]",
	}
	if len(rec.log) != len(want) {
		t.Fatalf("log = %v, want %v", rec.log, want)
	}
	for i := range want {
		if rec.log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, rec.log[i], want[i])
		}
	}
	ex.Stop()
	if len(rec.active) != 0 {
		t.Errorf("nodes still active after Stop: %v", rec.active)
	}
	n := len(rec.log) // includes the clear line Stop just logged
	if err := e.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	if len(rec.log) != n {
		t.Errorf("transitions survived Stop: %v", rec.log[n:])
	}
	ex.Stop() // idempotent
}

// Single-phase models install once and never transition.
func TestSinglePhaseExecution(t *testing.T) {
	e := sim.NewEngine()
	rec := newRecorder(e)
	ex, err := Start(e, rec, MustLookup("stream.ddr"), []int{2}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if len(rec.log) != 1 {
		t.Fatalf("single-phase model transitioned: %v", rec.log)
	}
	ex.Stop()
}
