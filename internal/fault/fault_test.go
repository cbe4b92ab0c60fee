package fault

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"montecimone/internal/sim"
)

func chaosSpec() *Spec {
	return &Spec{
		Crash:      &Crash{MTBFHours: 2},
		Thermal:    &Thermal{Injections: 3},
		PowerSteps: []PowerStep{{AtS: 100, BudgetW: 24}, {AtS: 500, BudgetW: 40}},
		Network:    []NetWindow{{StartS: 200, DurationS: 100, LatencyMult: 4, BandwidthMult: 0.5}},
		Stragglers: &Stragglers{Count: 2, Slowdown: 1.4},
	}
}

func TestCompileDeterministic(t *testing.T) {
	a := Compile(chaosSpec(), sim.NewRNG(7), 8, 3600)
	b := Compile(chaosSpec(), sim.NewRNG(7), 8, 3600)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec and seed compiled to different plans")
	}
	c := Compile(chaosSpec(), sim.NewRNG(8), 8, 3600)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds compiled to identical event timelines")
	}
}

// TestCompileStreamIsolation pins the named-stream contract: draws taken
// from other streams of the same factory (the campaign generator's, for
// instance) must not perturb the fault timeline.
func TestCompileStreamIsolation(t *testing.T) {
	clean := Compile(chaosSpec(), sim.NewRNG(7), 8, 3600)
	dirty := sim.NewRNG(7)
	for i := 0; i < 100; i++ {
		dirty.Stream("campaign.arrival").Float64()
		dirty.Stream("campaign.jitter").NormFloat64()
	}
	if !reflect.DeepEqual(clean, Compile(chaosSpec(), dirty, 8, 3600)) {
		t.Fatal("foreign stream draws perturbed the compiled fault plan")
	}
}

func TestCompilePlanShape(t *testing.T) {
	p := Compile(chaosSpec(), sim.NewRNG(7), 8, 3600)
	if !sort.SliceIsSorted(p.Events, func(i, j int) bool { return p.Events[i].AtS < p.Events[j].AtS }) {
		t.Error("timeline not sorted by time")
	}
	counts := map[Kind]int{}
	for _, ev := range p.Events {
		counts[ev.Kind]++
		if ev.AtS < 0 {
			t.Errorf("event before campaign start: %+v", ev)
		}
		switch ev.Kind {
		case KindCrash, KindThermalInject:
			if ev.Node < 0 || ev.Node >= 8 {
				t.Errorf("node index out of range: %+v", ev)
			}
			if ev.AtS >= 3600 {
				t.Errorf("stochastic event beyond horizon: %+v", ev)
			}
		}
	}
	if counts[KindCrash] == 0 {
		t.Error("MTBF 2 h x 8 nodes x 1 h drew no crashes")
	}
	if counts[KindThermalInject] != 3 {
		t.Errorf("thermal injections = %d, want 3", counts[KindThermalInject])
	}
	if counts[KindPowerStep] != 2 || counts[KindNetStart] != 1 || counts[KindNetEnd] != 1 {
		t.Errorf("explicit event counts wrong: %v", counts)
	}
	if len(p.Stragglers) != 2 {
		t.Errorf("stragglers = %d nodes, want 2", len(p.Stragglers))
	}
	for n, slow := range p.Stragglers {
		if n < 0 || n >= 8 || slow != 1.4 {
			t.Errorf("bad straggler assignment %d -> %v", n, slow)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []struct {
		name string
		spec Spec
	}{
		{"zero mtbf", Spec{Crash: &Crash{}}},
		{"sub-second reboot", Spec{Crash: &Crash{MTBFHours: 1, RebootS: 0.5}}},
		{"zero injections", Spec{Thermal: &Thermal{}}},
		{"sub-second repair", Spec{Thermal: &Thermal{Injections: 1, RepairS: 0.5}}},
		{"power step without plane", Spec{PowerSteps: []PowerStep{{AtS: 1, BudgetW: 30}}}},
		// Validation must hold power steps to the plane's own rule, or the
		// controller's SetBudgetW would refuse a step mid-run.
		{"NaN power step budget", Spec{PowerSteps: []PowerStep{{AtS: 1, BudgetW: math.NaN()}}}},
		{"+Inf power step budget", Spec{PowerSteps: []PowerStep{{AtS: 1, BudgetW: math.Inf(1)}}}},
		{"zero-duration window", Spec{Network: []NetWindow{{StartS: 10}}}},
		{"overlapping windows", Spec{Network: []NetWindow{{StartS: 0, DurationS: 100}, {StartS: 50, DurationS: 100}}}},
		{"latency under 1", Spec{Network: []NetWindow{{StartS: 0, DurationS: 10, LatencyMult: 0.5}}}},
		{"bandwidth over 1", Spec{Network: []NetWindow{{StartS: 0, DurationS: 10, BandwidthMult: 1.5}}}},
		{"too many stragglers", Spec{Stragglers: &Stragglers{Count: 9, Slowdown: 2}}},
		{"straggler not slower", Spec{Stragglers: &Stragglers{Count: 1, Slowdown: 1}}},
		{"negative checkpoint interval", Spec{CheckpointS: -1}},
		// Compile expands every crash and injection up front: these would
		// exhaust memory or, with an infinite rate, never finish.
		{"crash count beyond the cap", Spec{Crash: &Crash{MTBFHours: 1e-7}}},
		{"infinite crash rate", Spec{Crash: &Crash{MTBFHours: 1e-320}}},
		{"NaN mtbf", Spec{Crash: &Crash{MTBFHours: math.NaN()}}},
		{"injections beyond the cap", Spec{Thermal: &Thermal{Injections: 200_000_000}}},
	}
	for _, c := range bad {
		hasPlane := c.name != "power step without plane"
		err := c.spec.Validate(8, 3600, hasPlane)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if len(c.spec.PowerSteps) > 0 && !strings.Contains(err.Error(), "power_steps[0]") {
			t.Errorf("%s: error %q does not name the power step", c.name, err)
		}
	}
	// An overflowing rate over a horizon so short that it expects few
	// crashes still never reaches the horizon.
	inf := Spec{Crash: &Crash{MTBFHours: 1e-320}}
	if err := inf.Validate(1, 1e-315, false); err == nil {
		t.Error("infinite crash rate over a tiny horizon: accepted")
	}
	good := chaosSpec()
	if err := good.Validate(8, 3600, true); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestRequeueDefaults(t *testing.T) {
	s := &Spec{}
	if on, max := s.Requeue(); !on || max != DefaultMaxRequeues {
		t.Errorf("zero spec requeue = (%v, %d), want (true, %d)", on, max, DefaultMaxRequeues)
	}
	s.MaxRequeues = -1
	if on, _ := s.Requeue(); on {
		t.Error("negative max_requeues did not disable requeueing")
	}
	s.MaxRequeues = 5
	if on, max := s.Requeue(); !on || max != 5 {
		t.Errorf("explicit max_requeues = (%v, %d), want (true, 5)", on, max)
	}
}

// TestStatsRepeatable: open outages are charged in a fixed order, so every
// snapshot at the same instant returns the same bits.
func TestStatsRepeatable(t *testing.T) {
	c := &Controller{plan: &Plan{}, downDoneS: 5804.7, nodes: make([]nodeFaults, 8)}
	c.nodes[2] = nodeFaults{down: true, downSince: 1828.7}
	c.nodes[5] = nodeFaults{down: true, downSince: 3288.8}
	want := c.Stats(5994.7).DownNodeS
	for call := 1; call < 200; call++ {
		if got := c.Stats(5994.7).DownNodeS; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: DownNodeS = %v, first call gave %v", call, got, want)
		}
	}
}
