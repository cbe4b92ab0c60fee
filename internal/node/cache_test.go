package node

import (
	"testing"

	"montecimone/internal/power"
	"montecimone/internal/thermal"
)

// checkInputCache asserts that the input-derived cache holds exactly what
// a fresh computation from the current inputs gives. Each call also fills
// the cache, so the next input change or transition must clear it for the
// following check to pass.
func checkInputCache(t *testing.T, n *Node, at string) {
	t.Helper()
	socW, nvmeW := n.inputPower()
	wantSoc, wantNVMe := n.totalMilliwatts()/1000, n.nvmeWatts()
	if socW != wantSoc || nvmeW != wantNVMe {
		t.Fatalf("%s (%v): cached power (%v, %v) W, fresh (%v, %v) W", at, n.state, socW, nvmeW, wantSoc, wantNVMe)
	}
	if n.state == StateBooting {
		return // steady() is not defined while power follows the boot ramp
	}
	ss, stable := n.steady()
	wantSS, wantStable := n.tm.Steady(wantSoc, wantNVMe)
	if ss != wantSS || stable != wantStable {
		t.Fatalf("%s (%v): cached equilibrium %+v/%v, fresh %+v/%v", at, n.state, ss, stable, wantSS, wantStable)
	}
}

// TestInputCacheTracksEveryInput walks a node through every input change
// and state transition and checks the cached power pair and equilibrium
// against a fresh computation after each one, bit for bit.
func TestInputCacheTracksEveryInput(t *testing.T) {
	n := newTestNode(t, 3)
	now := 0.0
	// run integrates d seconds in base steps, checking after every step.
	run := func(d float64, at string) {
		t.Helper()
		for end := now + d; now < end; {
			now += 0.1
			n.Step(now)
			checkInputCache(t, n, at)
		}
	}
	checkInputCache(t, n, "new")

	if err := n.PowerOn(now); err != nil {
		t.Fatal(err)
	}
	checkInputCache(t, n, "power-on")
	run(R1Duration+R2Duration+1, "boot")
	if n.state != StateRunning {
		t.Fatalf("state after boot = %v", n.state)
	}

	if err := n.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	checkInputCache(t, n, "set workload")
	run(2, "hpl")
	n.ClearWorkload()
	checkInputCache(t, n, "clear workload")
	run(1, "idle")

	if err := n.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	checkInputCache(t, n, "set workload again")
	n.SetFrequencyScale(0.6)
	checkInputCache(t, n, "frequency scale")
	n.SetNetRates(50e6, 20e6)
	checkInputCache(t, n, "net rates")
	if err := n.SetEnclosure(thermal.Enclosure{AmbientC: 28, LidOn: true}); err != nil {
		t.Fatal(err)
	}
	checkInputCache(t, n, "enclosure")
	run(1, "scaled hpl")

	// Re-enter input sets the table already held under the old enclosure:
	// their equilibria must be solved afresh for the new one.
	n.SetFrequencyScale(1)
	n.SetNetRates(0, 0)
	checkInputCache(t, n, "hpl again after enclosure")
	n.ClearWorkload()
	checkInputCache(t, n, "idle again after enclosure")
	run(1, "idle after enclosure")
	if err := n.SetWorkload("hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	checkInputCache(t, n, "set workload after enclosure")
	// Overflow the table with more distinct input sets than it holds,
	// then come back to the first one.
	for i := 0; i <= inputSetCap; i++ {
		n.SetFrequencyScale(0.5 + 0.01*float64(i))
		checkInputCache(t, n, "frequency sweep")
	}
	n.SetFrequencyScale(0.5)
	checkInputCache(t, n, "frequency sweep wrapped")
	run(1, "scaled hpl after sweep")

	n.InjectThermalFault(4.5, 17)
	checkInputCache(t, n, "thermal fault")
	for i := 0; n.state != StateHalted; i++ {
		if i > 72000 {
			t.Fatalf("faulted node never halted; cpu at %.1f degC", n.tm.Temp(thermal.SensorCPU))
		}
		run(0.1, "runaway")
	}
	run(1, "halted")
	n.ClearThermalFault()
	checkInputCache(t, n, "clear thermal fault")

	n.PowerOff()
	checkInputCache(t, n, "power-off")
	run(1, "off")
	if err := n.PowerOn(now); err != nil {
		t.Fatal(err)
	}
	checkInputCache(t, n, "power-on again")
	run(R1Duration+R2Duration+1, "reboot")
	if n.state != StateRunning {
		t.Fatalf("state after reboot = %v", n.state)
	}
}

// TestEWMAFactorCache: partial substeps of varying length must use the
// factors of their own dt, and the load averages must match a reference
// that evaluates ewmaAlpha on every interval.
func TestEWMAFactorCache(t *testing.T) {
	n := newTestNode(t, 1)
	now := bootNode(t, n)
	if err := n.SetWorkload("stream", power.ActivityStreamDDR, 1e9); err != nil {
		t.Fatal(err)
	}
	runnable := float64(machine.Cores) * n.in.act.CoreActivity
	if runnable < 1 {
		runnable = 1
	}
	ref1, ref5, ref15 := n.load1, n.load5, n.load15
	for _, dt := range []float64{0.1, 0.1, 0.03, 0.07, 0.1, 0.25, 0.25, 0.01, 0.1} {
		now += dt
		step := now - n.now
		n.Step(now)
		if n.ewmaDt != step {
			t.Fatalf("cached dt %v, step %v", n.ewmaDt, step)
		}
		for _, c := range []struct {
			tau  float64
			got  float64
			load float64
			ref  *float64
		}{
			{60, n.alpha1, n.load1, &ref1},
			{300, n.alpha5, n.load5, &ref5},
			{900, n.alpha15, n.load15, &ref15},
		} {
			a := ewmaAlpha(step, c.tau)
			if c.got != a {
				t.Errorf("dt %v tau %v: cached factor %v, fresh %v", step, c.tau, c.got, a)
			}
			*c.ref += (runnable - *c.ref) * a
			if c.load != *c.ref {
				t.Errorf("dt %v tau %v: load %v, reference %v", step, c.tau, c.load, *c.ref)
			}
		}
	}
}
