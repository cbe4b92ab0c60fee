package node

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"montecimone/internal/perf"
	"montecimone/internal/power"
	"montecimone/internal/thermal"
)

// transition is one reported state change.
type transition struct {
	kind Transition
	at   float64
}

// twin is one node of the deferral equivalence test with the transitions
// it reported.
type twin struct {
	n     *Node
	trans []transition
}

// newTwin builds a node on the given clock. An eager twin reads itself on
// every input change, which integrates it at each one.
func newTwin(t *testing.T, id int, enc thermal.Enclosure, clock func() float64, eager bool) *twin {
	t.Helper()
	n, err := New(Config{ID: id, Enclosure: enc, HPMPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	tw := &twin{n: n}
	n.SetClock(clock)
	n.OnTransition(func(kind Transition, at float64) { tw.trans = append(tw.trans, transition{kind, at}) })
	if eager {
		n.OnInputChange(func() {
			n.Stats()
			if len(n.record) != 0 {
				t.Fatalf("a read left %d intervals recorded", len(n.record))
			}
		})
	}
	return tw
}

// observation is everything integration produces, read through the
// public API.
type observation struct {
	counters [6]uint64
	state    State
	haltedAt float64
	temps    [3]float64
	stats    Stats
}

// readAll reads the PMU counters first, which integrates only as far as
// the last input change, then the rest, which integrates up to the clock.
func readAll(t *testing.T, n *Node) observation {
	t.Helper()
	var o observation
	for ev := perf.EventInstret; ev <= perf.EventBranchMiss; ev++ {
		v, err := n.PMU().Read(0, ev)
		if err != nil {
			t.Fatal(err)
		}
		o.counters[ev-perf.EventInstret] = v
	}
	o.state, o.haltedAt, o.stats = n.State(), n.HaltedAt(), n.Stats()
	for i, s := range thermal.Sensors {
		o.temps[i] = n.Temperature(s)
	}
	return o
}

// TestDeferredIntervalsReplayExactly drives two identical nodes through
// the same random sequence of workload, DVFS, network and IO rate,
// enclosure, airflow-fault and power-button changes, with watchdog syncs
// at each node's NextDeadline as the cluster schedules them and an
// occasional lock-step Step. The eager
// twin is read on every input change, so it integrates at each one; the
// lazy twin is read only at random points, so cool running intervals pile
// up in its record. Both must agree bit for bit at every read and at the
// end: temperatures, Stats, PMU counters, state, halt time, transitions
// (kind and time), setter errors and deadlines.
func TestDeferredIntervalsReplayExactly(t *testing.T) {
	filled := 0 // runs whose record reached its capacity
	for _, slot := range []struct {
		name string
		id   int
		enc  thermal.Enclosure
	}{
		{"cool", 1, thermal.Enclosure{AmbientC: 25, LidOn: false}},
		{"hazard", 7, thermal.DefaultEnclosure()},
	} {
		for seed := int64(1); seed <= 6; seed++ {
			// Even seeds are quiet: almost no reads, few of the changes
			// that integrate at once and few distinct input sets, so
			// records reach their capacity. Odd seeds read often and draw
			// many distinct input sets, so tables overflow mid-record.
			quiet := seed%2 == 0
			t.Run(fmt.Sprintf("%s/seed%d", slot.name, seed), func(t *testing.T) {
				if replayEquivalence(t, slot.id, slot.enc, seed, quiet) == recordCap-1 {
					filled++
				}
			})
		}
	}
	if filled == 0 {
		t.Error("no run filled its record: the capacity replay went untested")
	}
}

// replayEquivalence runs one random sequence and returns the longest
// record the lazy twin held.
func replayEquivalence(t *testing.T, id int, enc thermal.Enclosure, seed int64, quiet bool) int {
	rng := rand.New(rand.NewSource(seed))
	// rare scales the enclosure, airflow-fault and power-button changes
	// and the lock-step steps, which all integrate at once.
	steps, readP, rare := 3000, 0.03, 1.0
	if quiet {
		steps, readP, rare = 8000, 0.0003, 0.01
	}
	now := 0.0
	clock := func() float64 { return now }
	eager, lazy := newTwin(t, id, enc, clock, true), newTwin(t, id, enc, clock, false)
	deferred, maxRecord := 0, 0

	compare := func(at string) {
		t.Helper()
		a, b := readAll(t, eager.n), readAll(t, lazy.n)
		if a != b {
			t.Fatalf("%s (t=%v): eager %+v\nlazy %+v", at, now, a, b)
		}
		if len(eager.trans) != len(lazy.trans) {
			t.Fatalf("%s (t=%v): transitions eager %v, lazy %v", at, now, eager.trans, lazy.trans)
		}
		for i := range eager.trans {
			if eager.trans[i] != lazy.trans[i] {
				t.Fatalf("%s (t=%v): transition %d eager %v, lazy %v", at, now, i, eager.trans[i], lazy.trans[i])
			}
		}
	}
	// change applies one input change to both twins (the eager one reads
	// itself if the inputs changed), then plans both watchdogs as the
	// cluster does on OnInputChange.
	change := func(name string, f func(n *Node) error) {
		t.Helper()
		ea, la := f(eager.n), f(lazy.n)
		if (ea == nil) != (la == nil) {
			t.Fatalf("%s (t=%v): eager error %v, lazy error %v", name, now, ea, la)
		}
		if len(lazy.n.record) > 0 {
			deferred++
		}
		if l := len(lazy.n.record); l > maxRecord {
			maxRecord = l
		}
		if len(lazy.n.record) >= recordCap || len(lazy.n.sets) > inputSetCap {
			t.Fatalf("%s: record %d / table %d over capacity", name, len(lazy.n.record), len(lazy.n.sets))
		}
		if a, b := eager.n.NextDeadline(), lazy.n.NextDeadline(); a != b {
			t.Fatalf("%s (t=%v): deadlines eager %v, lazy %v", name, now, a, b)
		}
	}
	// advance moves the clock, waking both twins at their watchdog
	// deadlines on the way like the cluster's per-node watchdog events.
	advance := func(dt float64) {
		t.Helper()
		target := now + dt
		for i := 0; ; i++ {
			d := eager.n.NextDeadline()
			if dl := lazy.n.NextDeadline(); dl != d {
				t.Fatalf("t=%v: deadlines eager %v, lazy %v", now, d, dl)
			}
			if d > target {
				break
			}
			if i > 1e6 {
				t.Fatalf("t=%v: watchdog never passed %v", now, target)
			}
			now = math.Max(now, d)
			eager.n.SyncTo(now)
			lazy.n.SyncTo(now)
		}
		now = target
	}
	activities := []power.Activity{power.ActivityHPL, power.ActivityQE, power.ActivityStreamDDR, power.ActivityIdle}
	names := []string{"hpl", "qe", "stream", "idle-spin"}
	// levels is how many of a value pool's entries a change picks from:
	// quiet runs use the first two, which keeps their distinct input sets
	// within one table (so only the record capacity forces a replay).
	levels := func(n int) int {
		if quiet {
			return 2
		}
		return n
	}

	change("power on", func(n *Node) error { return n.PowerOn(now) })
	for step := 0; step < steps; step++ {
		if rng.Float64() < readP {
			compare(fmt.Sprintf("read %d", step))
			continue
		}
		switch r := rng.Float64(); {
		case r < 0.30:
			switch rng.Intn(4) {
			case 0:
				advance(0)
			case 1:
				advance(rng.Float64() * 0.3)
			case 2:
				advance(rng.ExpFloat64() * 20)
			default:
				advance(rng.Float64() * 600)
			}
		case r < 0.50:
			i := rng.Intn(levels(len(activities)))
			act := activities[i]
			if !quiet && rng.Intn(3) == 0 {
				act.CoreActivity = rng.Float64()
			}
			mem := float64(rng.Intn(8)) * 1e9
			change("set workload", func(n *Node) error { return n.SetWorkload(names[i], act, mem) })
		case r < 0.60:
			change("clear workload", func(n *Node) error { n.ClearWorkload(); return nil })
		case r < 0.72:
			s := []float64{1, 0.7, MinFreqScale, 0.85, rng.Float64()}[rng.Intn(levels(5))]
			change("frequency", func(n *Node) error { n.SetFrequencyScale(s); return nil })
		case r < 0.84:
			rx, tx := []float64{0, 5e7, rng.Float64() * 1e8}[rng.Intn(levels(3))], rng.Float64()*1e8
			if quiet {
				tx = rx / 2
			}
			change("net rates", func(n *Node) error { n.SetNetRates(rx, tx); return nil })
		case r < 0.93:
			if quiet {
				break // keeps the input sets few enough for the record to fill
			}
			rd, wr := rng.Float64()*2e9, rng.Float64()*1e9
			change("io rates", func(n *Node) error { n.SetIORates(rd, wr); return nil })
		case rng.Float64() >= rare:
		default:
			switch rng.Intn(6) {
			case 0:
				e := thermal.Enclosure{AmbientC: []float64{22, 25, 28}[rng.Intn(3)], LidOn: rng.Intn(2) == 0}
				change("enclosure", func(n *Node) error { return n.SetEnclosure(e) })
			case 1:
				rth, air := rng.Float64()*6, rng.Float64()*18
				change("thermal fault", func(n *Node) error { n.InjectThermalFault(rth, air); return nil })
			case 2:
				change("clear thermal fault", func(n *Node) error { n.ClearThermalFault(); return nil })
			case 3:
				change("power off", func(n *Node) error { n.PowerOff(); return nil })
			case 4:
				// A lock-step ticker's integration step at this instant.
				eager.n.Step(now)
				lazy.n.Step(now)
			default:
				change("power on", func(n *Node) error { return n.PowerOn(now) })
			}
		}
	}
	compare("end")
	if deferred == 0 {
		t.Fatal("no input change was deferred: the test exercised nothing")
	}
	t.Logf("%d changes left intervals recorded; longest record %d", deferred, maxRecord)
	return maxRecord
}

// TestDeferralNeverHidesARunaway: a node left above the unstable
// equilibrium of its new inputs runs away even though those inputs have
// a stable equilibrium below the hot band (and so plan no watchdog). The
// next input change must integrate, reporting the trip as it returns,
// instead of recording the interval for a later replay.
func TestDeferralNeverHidesARunaway(t *testing.T) {
	// Slot 8 lid on in a 22 degC room with a 4.25 K/W airflow fault: HPL
	// has no equilibrium, idle a stable one near 84.5 degC and an
	// unstable one near 99.7 degC.
	now := 0.0
	tw := newTwin(t, 8, thermal.Enclosure{AmbientC: 22, LidOn: true}, func() float64 { return now }, false)
	n := tw.n
	if err := n.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	now = n.BootDeadline() + 1
	n.InjectThermalFault(4.25, 0)
	if err := n.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	for n.Temperature(thermal.SensorCPU) < 101 {
		if n.State() != StateRunning {
			t.Fatalf("setup: node %v at %.2f degC before reaching 101 degC", n.State(), n.Temperature(thermal.SensorCPU))
		}
		now += 0.1
	}
	n.ClearWorkload()
	if ss, stable := n.steady(); !stable || ss.CPU >= hotThresholdC || ss.CPU > 90 {
		t.Fatalf("setup: idle equilibrium %+v stable=%v, want stable and cool", ss, stable)
	}
	if d := n.NextDeadline(); !math.IsInf(d, 1) {
		t.Fatalf("setup: idle deadline %v, want none", d)
	}
	now += 600
	n.SetNetRates(1e6, 1e6)
	if len(tw.trans) != 2 || tw.trans[1].kind != TransitionHalt {
		t.Fatalf("transitions after the input change = %v, want boot then halt", tw.trans)
	}
	if len(n.record) != 0 {
		t.Errorf("%d intervals recorded across a runaway", len(n.record))
	}
}

// TestSetBaseStepRejectsNonFinite: a NaN step would spin SyncTo forever,
// and an infinite one would integrate any interval in a single step.
func TestSetBaseStepRejectsNonFinite(t *testing.T) {
	n := newTestNode(t, 1)
	for _, h := range []float64{0, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := n.SetBaseStep(h); err == nil {
			t.Errorf("SetBaseStep(%v) accepted", h)
		}
	}
	if err := n.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	n.SyncTo(100) // spun forever after an accepted NaN step
	if got := n.ModelSteps(); got == 0 || got > 1000 {
		t.Errorf("SyncTo(100) at the default 0.1 s step ran %d substeps, want 1..1000", got)
	}
}
