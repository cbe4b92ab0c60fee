package perf

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func newTestPMU(t *testing.T, hpm bool) *PMU {
	t.Helper()
	p, err := NewPMU(4, 1.2e9, 2, 64, hpm)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPMUValidation(t *testing.T) {
	if _, err := NewPMU(0, 1e9, 2, 64, true); err == nil {
		t.Error("zero harts accepted")
	}
	if _, err := NewPMU(4, 0, 2, 64, true); err == nil {
		t.Error("zero clock accepted")
	}
	if _, err := NewPMU(4, 1e9, 0, 64, true); err == nil {
		t.Error("zero issue width accepted")
	}
	if _, err := NewPMU(4, 1e9, 2, 0, true); err == nil {
		t.Error("zero line size accepted")
	}
}

func TestFixedCountersAlwaysReadable(t *testing.T) {
	p := newTestPMU(t, false)
	p.Advance(1.0, Load{CoreActivity: 0.5})
	for hart := 0; hart < p.Harts(); hart++ {
		cycles, err := p.Read(hart, EventCycle)
		if err != nil {
			t.Fatalf("hart %d cycle: %v", hart, err)
		}
		if cycles != 1_200_000_000 {
			t.Errorf("hart %d cycles = %d, want 1.2e9", hart, cycles)
		}
		instr, err := p.Read(hart, EventInstret)
		if err != nil {
			t.Fatalf("hart %d instret: %v", hart, err)
		}
		// 2 IPC x 1.2 GHz x 0.5 activity = 1.2e9 instructions.
		if instr != 1_200_000_000 {
			t.Errorf("hart %d instret = %d, want 1.2e9", hart, instr)
		}
	}
}

func TestProgrammableCountersGatedByBootPatch(t *testing.T) {
	// The paper's kernel exposes only INSTRET and CYCLE; the programmable
	// HPM counters need the authors' U-Boot patch.
	stock := newTestPMU(t, false)
	stock.Advance(1, Load{CoreActivity: 1, DDRReadBytesPerSec: 1e9})
	if _, err := stock.Read(0, EventDDRRead); !errors.Is(err, ErrHPMDisabled) {
		t.Errorf("stock boot loader: err = %v, want ErrHPMDisabled", err)
	}

	patched := newTestPMU(t, true)
	patched.Advance(1, Load{CoreActivity: 1, DDRReadBytesPerSec: 1e9})
	got, err := patched.Read(0, EventDDRRead)
	if err != nil {
		t.Fatalf("patched boot loader: %v", err)
	}
	// 1e9 B/s over 64 B lines over 4 harts = 3_906_250 lines/hart.
	if got != 3_906_250 {
		t.Errorf("ddr reads = %d, want 3906250", got)
	}
}

func TestL2MissIsReadPlusWrite(t *testing.T) {
	p := newTestPMU(t, true)
	p.Advance(2, Load{DDRReadBytesPerSec: 64e6, DDRWriteBytesPerSec: 32e6})
	r, _ := p.Read(1, EventDDRRead)
	w, _ := p.Read(1, EventDDRWrite)
	l2, _ := p.Read(1, EventL2Miss)
	if l2 != r+w {
		t.Errorf("l2 misses %d != reads %d + writes %d", l2, r, w)
	}
}

func TestReadValidation(t *testing.T) {
	p := newTestPMU(t, true)
	if _, err := p.Read(-1, EventCycle); err == nil {
		t.Error("negative hart accepted")
	}
	if _, err := p.Read(4, EventCycle); err == nil {
		t.Error("out-of-range hart accepted")
	}
	if _, err := p.Read(0, Event(99)); err == nil {
		t.Error("unknown event accepted")
	}
}

func TestIPCTracksActivity(t *testing.T) {
	p := newTestPMU(t, false)
	p.Advance(10, Load{CoreActivity: 0.465}) // HPL-like FPU utilisation
	instr, err := p.Read(0, EventInstret)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := p.Read(0, EventCycle)
	if err != nil {
		t.Fatal(err)
	}
	if ipc := float64(instr) / float64(cycles); math.Abs(ipc-0.93) > 1e-6 { // 2 issue slots x 0.465
		t.Errorf("IPC = %v, want 0.93", ipc)
	}
}

// A fresh PMU has counted zero cycles and zero instructions.
func TestIPCZeroCycles(t *testing.T) {
	p := newTestPMU(t, false)
	for _, ev := range []Event{EventCycle, EventInstret} {
		if n, err := p.Read(0, ev); err != nil || n != 0 {
			t.Errorf("%v on fresh PMU = %v, %v; want 0, nil", ev, n, err)
		}
	}
}

func TestAdvanceClampsActivity(t *testing.T) {
	p := newTestPMU(t, false)
	p.Advance(1, Load{CoreActivity: 7})
	instr, _ := p.Read(0, EventInstret)
	if instr != 2_400_000_000 { // clamped to 1.0 activity
		t.Errorf("instret = %d, want 2.4e9 (clamped)", instr)
	}
	q := newTestPMU(t, false)
	q.Advance(1, Load{CoreActivity: -3})
	instr, _ = q.Read(0, EventInstret)
	if instr != 0 {
		t.Errorf("instret = %d, want 0 for negative activity", instr)
	}
}

func TestFractionalAccumulation(t *testing.T) {
	// Many tiny steps must accumulate the same counts as one large step.
	a := newTestPMU(t, true)
	b := newTestPMU(t, true)
	load := Load{CoreActivity: 0.3, DDRReadBytesPerSec: 333, DDRWriteBytesPerSec: 111}
	for i := 0; i < 1000; i++ {
		a.Advance(0.001, load)
	}
	b.Advance(1.0, load)
	for _, ev := range append(append([]Event{}, FixedEvents...), ProgrammableEvents...) {
		av, errA := a.Read(0, ev)
		bv, errB := b.Read(0, ev)
		if errA != nil || errB != nil {
			t.Fatalf("%v: %v %v", ev, errA, errB)
		}
		diff := int64(av) - int64(bv)
		if diff < -1 || diff > 1 {
			t.Errorf("%v: split advance %d vs bulk %d", ev, av, bv)
		}
	}
}

func TestCountersMonotoneProperty(t *testing.T) {
	p := newTestPMU(t, true)
	prev := make(map[Event]uint64)
	prop := func(dtRaw, actRaw uint8) bool {
		dt := float64(dtRaw) / 100
		act := float64(actRaw) / 255
		p.Advance(dt, Load{CoreActivity: act, DDRReadBytesPerSec: act * 1e9})
		for _, ev := range []Event{EventInstret, EventCycle, EventDDRRead} {
			v, err := p.Read(0, ev)
			if err != nil || v < prev[ev] {
				return false
			}
			prev[ev] = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEventString(t *testing.T) {
	names := map[Event]string{
		EventInstret: "instret", EventCycle: "cycle", EventL2Miss: "l2_miss",
		EventDDRRead: "ddr_read", EventDDRWrite: "ddr_write", EventBranchMiss: "branch_miss",
	}
	for ev, want := range names {
		if ev.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(ev), ev.String(), want)
		}
	}
	if Event(50).String() != "Event(50)" {
		t.Error("unknown event string")
	}
}

// TestHartsReadIdenticalCounts: loads spread evenly over the harts, so
// after any mix of Advance calls every hart reads the same count of every
// event; the range and HPM-disabled errors are unchanged.
func TestHartsReadIdenticalCounts(t *testing.T) {
	for _, hpm := range []bool{true, false} {
		p := newTestPMU(t, hpm)
		loads := []struct {
			dt   float64
			load Load
		}{
			{0.1, Load{CoreActivity: 0.465, DDRReadBytesPerSec: 0.8e9, DDRWriteBytesPerSec: 0.1e9}},
			{0.03, Load{CoreActivity: 0.096, DDRReadBytesPerSec: 1.5e9, DDRWriteBytesPerSec: 0.75e9, ClockScale: 0.6}},
			{0.07, Load{CoreActivity: 0.291, DDRReadBytesPerSec: 333, DDRWriteBytesPerSec: 111, ClockScale: 0.4}},
			{2.5, Load{}},
			{0.1, Load{CoreActivity: 1, ClockScale: 1}},
		}
		for _, l := range loads {
			p.Advance(l.dt, l.load)
		}
		for _, ev := range append(append([]Event{}, FixedEvents...), ProgrammableEvents...) {
			want, wantErr := p.Read(0, ev)
			if !hpm && !ev.Fixed() {
				if !errors.Is(wantErr, ErrHPMDisabled) {
					t.Errorf("hpm off, %v: err = %v, want ErrHPMDisabled", ev, wantErr)
				}
				continue
			}
			if wantErr != nil || want == 0 {
				t.Fatalf("hpm %v, %v on hart 0 = %d, %v", hpm, ev, want, wantErr)
			}
			for hart := 1; hart < p.Harts(); hart++ {
				if got, err := p.Read(hart, ev); got != want || err != nil {
					t.Errorf("hpm %v, %v on hart %d = %d, %v; hart 0 reads %d", hpm, ev, hart, got, err, want)
				}
			}
		}
		if _, err := p.Read(p.Harts(), EventCycle); err == nil {
			t.Error("out-of-range hart accepted")
		}
		if _, err := p.Read(-1, EventCycle); err == nil {
			t.Error("negative hart accepted")
		}
	}
}
