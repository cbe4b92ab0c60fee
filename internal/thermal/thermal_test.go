package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

const (
	hplSoCWatts  = 5.935 // Table VI HPL total
	idleSoCWatts = 4.810 // Table VI idle total
)

func TestEnvironmentBounds(t *testing.T) {
	enc := DefaultEnclosure()
	if _, err := Environment(enc, -1); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := Environment(enc, NumSlots); err == nil {
		t.Error("slot beyond range accepted")
	}
	for slot := 0; slot < NumSlots; slot++ {
		if _, err := Environment(enc, slot); err != nil {
			t.Errorf("slot %d: %v", slot, err)
		}
	}
}

func TestCentreSlotsHotterLidOn(t *testing.T) {
	// Fig. 6 observation: nodes in the centre blades are significantly
	// hotter than the outer ones.
	enc := DefaultEnclosure()
	steady := func(slot int) float64 {
		m, err := NewModel(enc, slot)
		if err != nil {
			t.Fatal(err)
		}
		temp, _ := m.SteadyStateCPU(hplSoCWatts)
		return temp
	}
	outer := steady(0)
	centre := steady(2)
	if centre-outer < 10 {
		t.Errorf("centre slot %.1f degC not significantly hotter than outer %.1f degC", centre, outer)
	}
}

func TestHotCentreSlotSteady71(t *testing.T) {
	// Before mitigation the hotter (stable) nodes sat at ~71 degC.
	m, err := NewModel(DefaultEnclosure(), 2)
	if err != nil {
		t.Fatal(err)
	}
	temp, stable := m.SteadyStateCPU(hplSoCWatts)
	if !stable {
		t.Fatal("centre slot must be stable under HPL")
	}
	if math.Abs(temp-71) > 1.5 {
		t.Errorf("centre slot HPL steady = %.1f degC, want ~71", temp)
	}
}

func TestNode7RunawayUnderHPL(t *testing.T) {
	// Node 7 (slot index 6) has no stable equilibrium under HPL load with
	// the lid on: it must run away and trip at 107 degC.
	m, err := NewModel(DefaultEnclosure(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if temp, stable := m.SteadyStateCPU(hplSoCWatts); stable {
		t.Fatalf("slot 7 unexpectedly stable at %.1f degC under HPL", temp)
	}
	// But it is stable (hot) at idle: the hazard appears only under load.
	if temp, stable := m.SteadyStateCPU(idleSoCWatts); !stable {
		t.Error("slot 7 should be stable at idle")
	} else if temp < 80 || temp > 100 {
		t.Errorf("slot 7 idle steady = %.1f degC, want hot but below trip", temp)
	}
}

func TestNode7TripsDynamically(t *testing.T) {
	m, err := NewModel(DefaultEnclosure(), 6)
	if err != nil {
		t.Fatal(err)
	}
	tripAt := -1.0
	for now := 0.0; now < 3600; now += 0.5 {
		m.Step(0.5, hplSoCWatts, 1.0)
		if m.Tripped() {
			tripAt = now
			break
		}
	}
	if tripAt < 0 {
		t.Fatal("node 7 never tripped under sustained HPL")
	}
	if tripAt < 60 {
		t.Errorf("trip after %.0f s: runaway should take minutes, not seconds", tripAt)
	}
	if got := m.Temp(SensorCPU); got != TripTempC {
		t.Errorf("tripped CPU temp = %.1f, want saturation at %.0f", got, TripTempC)
	}
}

func TestMitigationDropsHottestNodeTo39(t *testing.T) {
	// Fig. 6: removing the lid dropped the hotter node from 71 to 39 degC.
	enc := Enclosure{AmbientC: 25, LidOn: false}
	m, err := NewModel(enc, 6)
	if err != nil {
		t.Fatal(err)
	}
	temp, stable := m.SteadyStateCPU(hplSoCWatts)
	if !stable {
		t.Fatal("mitigated slot 7 must be stable under HPL")
	}
	if math.Abs(temp-39) > 1.0 {
		t.Errorf("mitigated slot 7 HPL steady = %.1f degC, want ~39", temp)
	}
	// All slots must be stable and under 45 degC after mitigation.
	for slot := 0; slot < NumSlots; slot++ {
		sm, err := NewModel(enc, slot)
		if err != nil {
			t.Fatal(err)
		}
		st, ok := sm.SteadyStateCPU(hplSoCWatts)
		if !ok || st > 45 {
			t.Errorf("slot %d post-mitigation steady = %.1f (stable=%v)", slot, st, ok)
		}
	}
}

func TestSetEnclosureRelaxesTemperature(t *testing.T) {
	// Apply the mitigation to a hot running node and watch it cool.
	m, err := NewModel(DefaultEnclosure(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2400; i++ { // 20 min heat-up under HPL
		m.Step(0.5, hplSoCWatts, 1.0)
	}
	hot := m.Temp(SensorCPU)
	if hot < 65 {
		t.Fatalf("node did not heat up: %.1f degC", hot)
	}
	if err := m.SetEnclosure(Enclosure{AmbientC: 25, LidOn: false}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2400; i++ {
		m.Step(0.5, hplSoCWatts, 1.0)
	}
	cool := m.Temp(SensorCPU)
	if cool > 42 {
		t.Errorf("post-mitigation temperature = %.1f degC, want < 42", cool)
	}
	if hot-cool < 25 {
		t.Errorf("mitigation only dropped %.1f K", hot-cool)
	}
}

func TestSensorsDistinct(t *testing.T) {
	m, err := NewModel(DefaultEnclosure(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4800; i++ {
		m.Step(0.5, hplSoCWatts, 1.2)
	}
	cpu, mb, nvme := m.Temp(SensorCPU), m.Temp(SensorMB), m.Temp(SensorNVMe)
	if !(cpu > mb) {
		t.Errorf("cpu %.1f should exceed mb %.1f under load", cpu, mb)
	}
	if nvme <= DefaultEnclosure().AmbientC {
		t.Errorf("nvme %.1f should sit above ambient", nvme)
	}
}

func TestSensorString(t *testing.T) {
	want := map[Sensor]string{SensorCPU: "cpu_temp", SensorMB: "mb_temp", SensorNVMe: "nvme_temp"}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
	}
	if Sensor(9).String() != "Sensor(9)" {
		t.Error("unknown sensor string")
	}
	if Sensor(9).String() != "Sensor(9)" || (&Model{}).Temp(Sensor(9)) != 0 {
		t.Error("unknown sensor must read 0")
	}
}

func TestClearTrip(t *testing.T) {
	m, err := NewModel(DefaultEnclosure(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7200 && !m.Tripped(); i++ {
		m.Step(0.5, hplSoCWatts, 1.0)
	}
	if !m.Tripped() {
		t.Fatal("expected trip")
	}
	m.ClearTrip()
	if m.Tripped() {
		t.Error("ClearTrip did not reset the latch")
	}
}

func TestStepZeroOrNegativeDtNoop(t *testing.T) {
	m, err := NewModel(DefaultEnclosure(), 0)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Temp(SensorCPU)
	m.Step(0, 100, 100)
	m.Step(-5, 100, 100)
	if m.Temp(SensorCPU) != before {
		t.Error("non-positive dt must not advance the model")
	}
}

func TestLargeStepStable(t *testing.T) {
	// Explicit Euler with dt >> tau must not oscillate or explode.
	m, err := NewModel(DefaultEnclosure(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Step(500, idleSoCWatts, 0.5)
		if math.IsNaN(m.Temp(SensorCPU)) || m.Temp(SensorCPU) > TripTempC+1 {
			t.Fatalf("model unstable at step %d: %v", i, m.Temp(SensorCPU))
		}
	}
	want, _ := m.SteadyStateCPU(idleSoCWatts)
	if math.Abs(m.Temp(SensorCPU)-want) > 1.0 {
		t.Errorf("large-step steady = %.2f, want %.2f", m.Temp(SensorCPU), want)
	}
}

// Property: temperatures increase monotonically with power at steady state
// (for stable slots), and steady state never sits below slot air temp.
func TestSteadyStateMonotoneProperty(t *testing.T) {
	enc := Enclosure{AmbientC: 25, LidOn: false} // all slots stable
	prop := func(slotRaw, pRaw uint8) bool {
		slot := int(slotRaw) % NumSlots
		p := float64(pRaw) / 255 * 6 // 0..6 W
		m, err := NewModel(enc, slot)
		if err != nil {
			return false
		}
		t1, ok1 := m.SteadyStateCPU(p)
		t2, ok2 := m.SteadyStateCPU(p + 0.5)
		if !ok1 || !ok2 {
			return false
		}
		env, _ := Environment(enc, slot)
		return t2 > t1 && t1 >= enc.AmbientC+env.AirRiseC-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: dynamics converge to SteadyStateCPU for stable slots from any
// starting condition reachable by the model.
func TestDynamicsConvergeProperty(t *testing.T) {
	enc := Enclosure{AmbientC: 25, LidOn: false}
	prop := func(slotRaw uint8, pRaw uint8) bool {
		slot := int(slotRaw) % NumSlots
		p := 1 + float64(pRaw)/255*5
		m, err := NewModel(enc, slot)
		if err != nil {
			return false
		}
		want, ok := m.SteadyStateCPU(p)
		if !ok {
			return false
		}
		for i := 0; i < 4000; i++ {
			m.Step(1.0, p, 0.5)
		}
		return math.Abs(m.Temp(SensorCPU)-want) < 0.5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateCPUVerdicts: the solve reports an equilibrium only when it
// found one. The two runaway cases crawl towards the trip point for more
// than 500 fixed-point iterations; a solve that stopped there used to
// report its unconverged iterate as a stable equilibrium.
func TestSteadyStateCPUVerdicts(t *testing.T) {
	for _, c := range []struct {
		name                     string
		slot                     int
		enc                      Enclosure
		faultRth, faultAir, socW float64
		stable                   bool
	}{
		{"slot 1, 28 degC, fault (7,0), 2.42 W runs away", 1, Enclosure{AmbientC: 28, LidOn: true}, 7, 0, 2.42, false},
		{"slot 2, 25 degC, fault (1,5), 5.87 W runs away", 2, Enclosure{AmbientC: 25, LidOn: true}, 1, 5, 5.87, false},
		{"slot 0, 28 degC, fault (7,0), 2.42 W settles", 0, Enclosure{AmbientC: 28, LidOn: true}, 7, 0, 2.42, true},
		{"slot 1, 25 degC, fault (1,5), 5.87 W settles", 1, Enclosure{AmbientC: 25, LidOn: true}, 1, 5, 5.87, true},
		{"slot 2, 23 degC, fault (4.5,17), 0.86 W settles slowly", 2, Enclosure{AmbientC: 23, LidOn: true}, 4.5, 17, 0.86, true},
		{"slot 6, HPL, no fault runs away", 6, DefaultEnclosure(), 0, 0, hplSoCWatts, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewModel(c.enc, c.slot)
			if err != nil {
				t.Fatal(err)
			}
			m.InjectAirflowFault(c.faultRth, c.faultAir)
			got, stable := m.SteadyStateCPU(c.socW)
			if stable != c.stable {
				t.Fatalf("SteadyStateCPU = (%v, %v), want stable=%v", got, stable, c.stable)
			}
			if !stable {
				if got != TripTempC {
					t.Errorf("runaway verdict returned %v degC, want the trip temperature", got)
				}
			} else if fixed := m.enc.AmbientC + m.airRiseC() + m.rthKW()*effectivePower(c.socW, got); math.Abs(fixed-got) > 1e-6 {
				t.Errorf("equilibrium %v degC is not a fixed point (maps to %v)", got, fixed)
			}
			// The dynamics agree with the verdict: from the cold start they
			// trip exactly when the solve found no equilibrium.
			for i := 0; i < 200000 && !m.Tripped(); i++ {
				m.Step(1, c.socW, 0)
			}
			if m.Tripped() == c.stable {
				t.Errorf("dynamics tripped=%v at %.3f degC, verdict stable=%v", m.Tripped(), m.Temp(SensorCPU), c.stable)
			}
		})
	}
}
