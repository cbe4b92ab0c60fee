package soc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogueValid(t *testing.T) {
	for _, m := range []*Machine{FU740(), Marconi100(), Armida()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestFU740Peaks(t *testing.T) {
	m := FU740()
	if got := m.PeakNodeFlops(); got != 4.0e9 {
		t.Errorf("node peak = %v, want 4 GFLOP/s", got)
	}
	if m.PeakDDRBandwidth != 7760e6 {
		t.Errorf("peak DDR = %v, want 7760 MB/s", m.PeakDDRBandwidth)
	}
	if m.PrefetchStreams != 8 {
		t.Errorf("prefetch streams = %d, want 8", m.PrefetchStreams)
	}
	if m.BitmanipSupported && m.BitmanipEmitted {
		t.Error("GCC 10.3 must not emit bitmanip on the FU740 model")
	}
}

func TestValidateRejectsBrokenMachines(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Machine)
	}{
		{"no name", func(m *Machine) { m.Name = "" }},
		{"zero cores", func(m *Machine) { m.Cores = 0 }},
		{"zero clock", func(m *Machine) { m.ClockHz = 0 }},
		{"zero peak", func(m *Machine) { m.PeakFlopsPerCore = 0 }},
		{"zero ddr", func(m *Machine) { m.PeakDDRBandwidth = 0 }},
		{"bad dgemm eff", func(m *Machine) { m.DGEMMEfficiency = 1.5 }},
		{"bad stream base", func(m *Machine) { m.StreamDDRBase = 0 }},
		{"missing shape", func(m *Machine) { delete(m.StreamKernelShape, StreamTriad) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := FU740()
			tt.mutate(m)
			if err := m.Validate(); err == nil {
				t.Error("Validate accepted a broken machine")
			}
		})
	}
}

func TestStreamKernelString(t *testing.T) {
	want := map[StreamKernel]string{
		StreamCopy:  "copy",
		StreamScale: "scale",
		StreamAdd:   "add",
		StreamTriad: "triad",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if got := StreamKernel(99).String(); got != "StreamKernel(99)" {
		t.Errorf("unknown kernel String = %q", got)
	}
}

func TestStreamTableVDDR(t *testing.T) {
	// Table V, DDR-resident column (1945.5 MiB working set), MB/s.
	m := FU740()
	want := map[StreamKernel]float64{
		StreamCopy:  1206,
		StreamScale: 1025,
		StreamAdd:   1124,
		StreamTriad: 1122,
	}
	set := int64(1945.5 * 1024 * 1024)
	for k, mbps := range want {
		bw, err := m.StreamBandwidth(k, set, StreamOptions{Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		got := bw / 1e6
		if math.Abs(got-mbps)/mbps > 0.02 {
			t.Errorf("%s DDR bandwidth = %.0f MB/s, want %.0f (+-2%%)", k, got, mbps)
		}
	}
}

func TestStreamTableVL2(t *testing.T) {
	// Table V, L2-resident column (1.1 MiB working set), MB/s.
	m := FU740()
	want := map[StreamKernel]float64{
		StreamCopy:  7079,
		StreamScale: 3558,
		StreamAdd:   4380,
		StreamTriad: 4365,
	}
	setMiB := 1.1
	set := int64(setMiB * float64(1024*1024))
	for k, mbps := range want {
		bw, err := m.StreamBandwidth(k, set, StreamOptions{Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		got := bw / 1e6
		if math.Abs(got-mbps)/mbps > 0.001 {
			t.Errorf("%s L2 bandwidth = %.0f MB/s, want %.0f", k, got, mbps)
		}
	}
}

func TestStreamEfficiencyComparison(t *testing.T) {
	// Section V-A: copy-kernel DDR efficiency 15.5 % (MC), 48.2 % (M100),
	// 63.21 % (Armida).
	tests := []struct {
		machine *Machine
		want    float64
	}{
		{FU740(), 0.155},
		{Marconi100(), 0.482},
		{Armida(), 0.6321},
	}
	for _, tt := range tests {
		set := tt.machine.L2Bytes * 64 // comfortably DDR-resident
		bw, err := tt.machine.StreamBandwidth(StreamCopy, set, StreamOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tt.machine.Name, err)
		}
		got := bw / tt.machine.PeakDDRBandwidth
		if math.Abs(got-tt.want)/tt.want > 0.02 {
			t.Errorf("%s copy efficiency = %.3f, want %.3f", tt.machine.Name, got, tt.want)
		}
	}
}

func TestStreamPrefetchKnob(t *testing.T) {
	m := FU740()
	set := int64(512 * MiB)
	base, err := m.StreamBandwidth(StreamTriad, set, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := m.StreamBandwidth(StreamTriad, set, StreamOptions{PrefetchUtilisation: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tuned <= base {
		t.Errorf("prefetcher utilisation did not raise bandwidth: %v <= %v", tuned, base)
	}
	if tuned > m.PeakDDRBandwidth {
		t.Errorf("modelled bandwidth %v exceeds peak %v", tuned, m.PeakDDRBandwidth)
	}
}

func TestStreamBitmanipKnob(t *testing.T) {
	m := FU740()
	set := int64(512 * MiB)
	base, _ := m.StreamBandwidth(StreamCopy, set, StreamOptions{})
	bm, _ := m.StreamBandwidth(StreamCopy, set, StreamOptions{Bitmanip: true})
	if bm <= base {
		t.Error("bitmanip emission should improve DDR-bound STREAM on the FU740")
	}
	// Machines whose toolchain already emits bitmanip see no extra gain.
	a := Armida()
	ab, _ := a.StreamBandwidth(StreamCopy, set, StreamOptions{})
	ab2, _ := a.StreamBandwidth(StreamCopy, set, StreamOptions{Bitmanip: true})
	if ab != ab2 {
		t.Error("bitmanip knob must be a no-op where the toolchain already emits it")
	}
}

func TestStreamThreadScaling(t *testing.T) {
	m := FU740()
	set := int64(512 * MiB)
	prev := 0.0
	for threads := 1; threads <= 4; threads++ {
		bw, err := m.StreamBandwidth(StreamCopy, set, StreamOptions{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if bw <= prev {
			t.Errorf("bandwidth not increasing with threads: %d -> %v", threads, bw)
		}
		prev = bw
	}
}

func TestStreamCodeModelCap(t *testing.T) {
	m := FU740()
	capBytes := m.MaxStreamArrayBytes(StreamOptions{})
	if capBytes != 2*GiB/3 {
		t.Errorf("medany per-array cap = %d, want %d", capBytes, 2*GiB/3)
	}
	uncapped := m.MaxStreamArrayBytes(StreamOptions{LargeCodeModel: true})
	if uncapped <= capBytes {
		t.Error("large code model should lift the cap")
	}
	a := Armida()
	if a.MaxStreamArrayBytes(StreamOptions{}) == capBytes {
		t.Error("aarch64 machine must not inherit the medany cap")
	}
}

func TestStreamBandwidthErrors(t *testing.T) {
	m := FU740()
	if _, err := m.StreamBandwidth(StreamKernel(0), 1024, StreamOptions{}); err == nil {
		t.Error("invalid kernel accepted")
	}
	if _, err := m.StreamBandwidth(StreamCopy, 0, StreamOptions{}); err == nil {
		t.Error("zero working set accepted")
	}
}

func TestDGEMMTimeLargeBlockEfficiency(t *testing.T) {
	m := FU740()
	n := 2048
	tm := m.DGEMMTime(n, n, n)
	eff := DGEMMFlops(n, n, n) / tm / m.PeakNodeFlops()
	if math.Abs(eff-m.DGEMMEfficiency) > 1e-9 {
		t.Errorf("large dgemm efficiency = %v, want %v", eff, m.DGEMMEfficiency)
	}
}

func TestDGEMMTimeSkinnyPenalty(t *testing.T) {
	m := FU740()
	big := m.DGEMMTime(2048, 2048, 2048)
	effBig := DGEMMFlops(2048, 2048, 2048) / big / m.PeakNodeFlops()
	skinny := m.DGEMMTime(2048, 8, 2048)
	effSkinny := DGEMMFlops(2048, 8, 2048) / skinny / m.PeakNodeFlops()
	if effSkinny >= effBig {
		t.Errorf("skinny dgemm efficiency %v not below blocked %v", effSkinny, effBig)
	}
	if effSkinny < m.PanelEfficiency {
		t.Errorf("skinny dgemm efficiency %v below panel floor %v", effSkinny, m.PanelEfficiency)
	}
}

func TestKernelTimesNonNegativeProperty(t *testing.T) {
	m := FU740()
	prop := func(a, b, c uint16) bool {
		rows, cols, inner := int(a)%4096, int(b)%4096, int(c)%4096
		times := []float64{
			m.DGEMMTime(rows, cols, inner),
			m.PanelFactorTime(rows, cols%512),
			m.TRSMTime(cols%512, rows),
		}
		for _, tm := range times {
			if tm < 0 || math.IsNaN(tm) || math.IsInf(tm, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDGEMMTimeMonotoneInSizeProperty(t *testing.T) {
	m := FU740()
	prop := func(a uint8) bool {
		n := 64 + int(a)
		return m.DGEMMTime(n+1, n+1, n+1) > m.DGEMMTime(n, n, n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroDimensionsZeroTime(t *testing.T) {
	m := FU740()
	if m.DGEMMTime(0, 10, 10) != 0 || m.PanelFactorTime(0, 4) != 0 ||
		m.TRSMTime(0, 4) != 0 {
		t.Error("zero-size kernels must take zero time")
	}
}
