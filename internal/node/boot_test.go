package node

import (
	"math"
	"math/rand"
	"testing"

	"montecimone/internal/power"
	"montecimone/internal/thermal"
)

// refRailMilliwatts is one rail of a booting node evaluated from the
// shared calibration at elapsed seconds after power-on: the R1 floor,
// then the R2 floor, ramping linearly toward the OS idle floor over the
// last RampDuration seconds of R2.
func refRailMilliwatts(r power.Rail, elapsed float64) float64 {
	pm := power.Calibration()
	if elapsed < R1Duration {
		return pm.RailMilliwatts(r, power.PhaseR1, power.ActivityIdle)
	}
	base := pm.RailMilliwatts(r, power.PhaseR2, power.ActivityIdle)
	rampStart := R1Duration + R2Duration - RampDuration
	if elapsed <= rampStart {
		return base
	}
	frac := (elapsed - rampStart) / RampDuration
	idle := pm.RailMilliwatts(r, power.PhaseRun, power.ActivityIdle)
	return base + frac*(idle-base)
}

// refTotalMilliwatts sums the nine reference rails in power.Rails order.
func refTotalMilliwatts(elapsed float64) float64 {
	total := 0.0
	for _, r := range power.Rails {
		total += refRailMilliwatts(r, elapsed)
	}
	return total
}

// checkBootPower asserts that a booting node's total and per-rail power
// at its current instant equal the rail-by-rail reference bit for bit,
// and that the nine rail reads sum to the SoC power it integrates.
func checkBootPower(t *testing.T, n *Node) {
	t.Helper()
	if n.state != StateBooting {
		t.Fatalf("node is %v, want booting", n.state)
	}
	elapsed := n.now - n.poweredAt
	if got, want := n.TotalMilliwatts(), refTotalMilliwatts(elapsed); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%v s after power-on: total %v mW, reference %v mW", elapsed, got, want)
	}
	sum := 0.0
	for _, r := range power.Rails {
		got, want := n.RailMilliwatts(r), refRailMilliwatts(r, elapsed)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v s after power-on: rail %s %v mW, reference %v mW", elapsed, r, got, want)
		}
		sum += got
	}
	if socW, _ := n.inputPower(); math.Float64bits(socW) != math.Float64bits(sum/1000) {
		t.Fatalf("%v s after power-on: integrated SoC power %v W, rails sum to %v W", elapsed, socW, sum/1000)
	}
}

// TestBootTableMatchesRailByRail: the boot table reproduces the nine-rail
// evaluation at the phase and ramp boundaries, one ulp either side, just
// short of the boot deadline and at random instants.
func TestBootTableMatchesRailByRail(t *testing.T) {
	n := newTestNode(t, 1)
	if err := n.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	const rampStart = R1Duration + R2Duration - RampDuration
	at := []float64{
		0,
		math.Nextafter(R1Duration, 0), R1Duration, math.Nextafter(R1Duration, math.Inf(1)),
		math.Nextafter(rampStart, 0), rampStart, math.Nextafter(rampStart, math.Inf(1)),
		n.BootDeadline() - syncSnapSec,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		at = append(at, rng.Float64()*(n.BootDeadline()-syncSnapSec))
	}
	// Boot power depends on the time since power-on alone, so the node's
	// clock is placed at each instant directly.
	for _, e := range at {
		n.now = e
		checkBootPower(t, n)
	}
}

// TestBootTableOffGridReboot reboots a node at an instant off the 0.1 s
// grid and integrates the boot in base steps plus partial ones. After
// every substep its power matches the reference, and its temperatures
// match a twin thermal model fed the nine rail reads, bit for bit.
func TestBootTableOffGridReboot(t *testing.T) {
	n := newTestNode(t, 5)
	now := bootNode(t, n) + 123.4567
	n.SyncTo(now)
	n.PowerOff()
	now += 61.0301
	n.SyncTo(now)
	if err := n.PowerOn(now); err != nil {
		t.Fatal(err)
	}
	checkBootPower(t, n)
	twin := *n.tm
	rng := rand.New(rand.NewSource(3))
	last := 0.0 // the latest instant compared, seconds after power-on
	for {
		if rng.Intn(8) == 0 {
			now += BaseStep * rng.Float64()
		} else {
			now += BaseStep
		}
		dt := now - n.now
		n.Step(now)
		if n.state != StateBooting {
			break
		}
		checkBootPower(t, n)
		sum := 0.0
		for _, r := range power.Rails {
			sum += n.RailMilliwatts(r)
		}
		twin.Step(dt, sum/1000, n.nvmeWatts())
		for _, s := range thermal.Sensors {
			if got, want := n.tm.Temp(s), twin.Temp(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v s after power-on: %v at %v degC, twin fed the rail reads at %v degC",
					n.now-n.poweredAt, s, got, want)
			}
		}
		last = n.now - n.poweredAt
	}
	if n.state != StateRunning || last < R1Duration+R2Duration-BaseStep {
		t.Fatalf("reboot ended %v with the last booting substep %v s after power-on", n.state, last)
	}
}
