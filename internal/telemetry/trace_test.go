package telemetry

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddAndStats(t *testing.T) {
	tr := NewTrace("core", "mW")
	for i, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		if err := tr.Add(float64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 8 {
		t.Fatalf("len = %d", tr.Len())
	}
	if got := tr.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := tr.Std(); got != 2 {
		t.Errorf("std = %v, want 2", got)
	}
	if tr.Max() != 9 {
		t.Errorf("max = %v, want 9", tr.Max())
	}
}

func TestEmptyTraceStats(t *testing.T) {
	tr := NewTrace("x", "u")
	if tr.Mean() != 0 || tr.Std() != 0 || tr.Max() != 0 {
		t.Error("empty trace stats must be zero")
	}
	if _, ok := tr.MeanBetween(0, 1); ok {
		t.Error("MeanBetween on empty trace reported ok")
	}
}

func TestAddRejectsTimeTravel(t *testing.T) {
	tr := NewTrace("x", "u")
	if err := tr.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(0.5, 0); err == nil {
		t.Error("decreasing time accepted")
	}
	if err := tr.Add(1, 0); err != nil {
		t.Errorf("equal time rejected: %v", err)
	}
}

func TestMeanBetween(t *testing.T) {
	tr := NewTrace("x", "u")
	for i := 0; i < 100; i++ {
		if err := tr.Add(float64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := tr.MeanBetween(10, 20) // samples 10..19
	if !ok || got != 14.5 {
		t.Errorf("MeanBetween = %v (%v), want 14.5", got, ok)
	}
	if _, ok := tr.MeanBetween(200, 300); ok {
		t.Error("window beyond data reported ok")
	}
}

func TestDownsample(t *testing.T) {
	tr := NewTrace("rail", "mW")
	// 10 kHz sampling for 10 ms: values ramp 0..99.
	for i := 0; i < 100; i++ {
		if err := tr.Add(float64(i)*1e-4, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := tr.Downsample(1e-3) // 1 ms windows of 10 samples each
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 10 {
		t.Fatalf("downsampled len = %d, want 10", ds.Len())
	}
	if got := ds.At(0).Value; got != 4.5 {
		t.Errorf("window 0 mean = %v, want 4.5", got)
	}
	if got := ds.At(9).Value; got != 94.5 {
		t.Errorf("window 9 mean = %v, want 94.5", got)
	}
}

func TestDownsampleSkipsEmptyWindows(t *testing.T) {
	tr := NewTrace("x", "u")
	_ = tr.Add(0.0005, 1)
	_ = tr.Add(0.0105, 3) // gap of 10 windows
	ds, err := tr.Downsample(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Fatalf("len = %d, want 2 (no empty windows emitted)", ds.Len())
	}
}

func TestDownsampleInvalidWindow(t *testing.T) {
	tr := NewTrace("x", "u")
	if _, err := tr.Downsample(0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestSet(t *testing.T) {
	s := NewSet()
	a := s.Get("core", "mW")
	b := s.Get("ddr_mem", "mW")
	if s.Get("core", "mW") != a {
		t.Error("Get must return the same trace")
	}
	if s.Lookup("ddr_mem") != b || s.Lookup("missing") != nil {
		t.Error("Lookup mismatch")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "core" || names[1] != "ddr_mem" {
		t.Errorf("names = %v", names)
	}
}

// Property: downsampling preserves the global mean when every window has
// an equal number of samples.
func TestDownsampleMeanProperty(t *testing.T) {
	prop := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		// Pad to a multiple of 4 samples per window.
		for len(vals)%4 != 0 {
			vals = append(vals, 0)
		}
		tr := NewTrace("p", "u")
		for i, v := range vals {
			if err := tr.Add(float64(i)*0.25, float64(v)); err != nil {
				return false
			}
		}
		ds, err := tr.Downsample(1.0)
		if err != nil {
			return false
		}
		return math.Abs(ds.Mean()-tr.Mean()) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: min <= Mean <= Max and Std >= 0 for any trace.
func TestStatsInvariantsProperty(t *testing.T) {
	prop := func(vals []int16) bool {
		tr := NewTrace("p", "u")
		lowest := math.Inf(1)
		times := make([]float64, len(vals))
		for i := range vals {
			times[i] = float64(i)
		}
		sort.Float64s(times)
		for i, v := range vals {
			if err := tr.Add(times[i], float64(v)); err != nil {
				return false
			}
			lowest = math.Min(lowest, float64(v))
		}
		if tr.Len() == 0 {
			return true
		}
		return lowest <= tr.Mean() && tr.Mean() <= tr.Max() && tr.Std() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
