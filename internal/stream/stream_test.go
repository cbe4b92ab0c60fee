package stream

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"montecimone/internal/sim"
	"montecimone/internal/soc"
)

func TestBytesPerElement(t *testing.T) {
	want := map[soc.StreamKernel]int{
		soc.StreamCopy: 16, soc.StreamScale: 16,
		soc.StreamAdd: 24, soc.StreamTriad: 24,
	}
	for k, w := range want {
		if got := BytesPerElement(k); got != w {
			t.Errorf("%s = %d, want %d", k, got, w)
		}
	}
	if BytesPerElement(soc.StreamKernel(0)) != 0 {
		t.Error("unknown kernel bytes")
	}
}

func TestTableVRegeneration(t *testing.T) {
	// Table V, both dataset columns, mean values in MB/s.
	wantDDR := map[soc.StreamKernel]float64{
		soc.StreamCopy: 1206, soc.StreamScale: 1025,
		soc.StreamAdd: 1124, soc.StreamTriad: 1122,
	}
	wantL2 := map[soc.StreamKernel]float64{
		soc.StreamCopy: 7079, soc.StreamScale: 3558,
		soc.StreamAdd: 4380, soc.StreamTriad: 4365,
	}
	for _, tc := range []struct {
		name string
		set  int64
		want map[soc.StreamKernel]float64
	}{
		{"DDR", DDRWorkingSetBytes, wantDDR},
		{"L2", L2WorkingSetBytes, wantL2},
	} {
		results, err := Run(Config{WorkingSetBytes: tc.set, RNG: sim.NewRNG(1)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(results) != 4 {
			t.Fatalf("%s: %d results", tc.name, len(results))
		}
		for _, r := range results {
			want := tc.want[r.Kernel]
			if math.Abs(r.MeanMBps-want)/want > 0.025 {
				t.Errorf("%s %s = %.0f MB/s, want %.0f +-2.5%%", tc.name, r.Kernel, r.MeanMBps, want)
			}
			if r.StdMBps <= 0 || r.StdMBps > 0.02*r.MeanMBps {
				t.Errorf("%s %s std = %v implausible", tc.name, r.Kernel, r.StdMBps)
			}
		}
	}
}

func TestPaperEfficiencyNumbers(t *testing.T) {
	// Section V-A: Monte Cimone attains no more than 15.5 % of peak DDR
	// bandwidth; Marconi100 48.2 % and Armida 63.21 %.
	run := func(m *soc.Machine) float64 {
		// A set comfortably beyond any cache.
		results, err := Run(Config{Machine: m, WorkingSetBytes: m.L2Bytes * 128})
		if err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for _, r := range results {
			if r.EfficiencyOfPeak > best {
				best = r.EfficiencyOfPeak
			}
		}
		return best
	}
	if got := run(soc.FU740()); math.Abs(got-0.155) > 0.005 {
		t.Errorf("Monte Cimone best efficiency = %.4f, want ~0.155", got)
	}
	if got := run(soc.Marconi100()); math.Abs(got-0.482) > 0.01 {
		t.Errorf("Marconi100 best efficiency = %.4f, want ~0.482", got)
	}
	if got := run(soc.Armida()); math.Abs(got-0.6321) > 0.01 {
		t.Errorf("Armida best efficiency = %.4f, want ~0.6321", got)
	}
}

func TestCodeModelCapEnforced(t *testing.T) {
	// A working set beyond 3 x (2 GiB / 3) cannot link with medany.
	_, err := Run(Config{WorkingSetBytes: 3 * soc.GiB})
	var cmErr *ErrCodeModel
	if !errors.As(err, &cmErr) {
		t.Fatalf("err = %v, want ErrCodeModel", err)
	}
	// The paper's 1945.5 MiB set fits.
	if _, err := Run(Config{WorkingSetBytes: DDRWorkingSetBytes}); err != nil {
		t.Errorf("paper set rejected: %v", err)
	}
	// The large-code-model workaround lifts the cap.
	if _, err := Run(Config{WorkingSetBytes: 3 * soc.GiB, Opts: soc.StreamOptions{LargeCodeModel: true}}); err != nil {
		t.Errorf("large code model still capped: %v", err)
	}
}

func TestPrefetcherAblationClosesGap(t *testing.T) {
	// Section V-A hypothesis (i): a properly exploited prefetcher should
	// reduce the gap between the DDR and L2 runs.
	base, err := Run(Config{WorkingSetBytes: DDRWorkingSetBytes})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Run(Config{
		WorkingSetBytes: DDRWorkingSetBytes,
		Opts:            soc.StreamOptions{PrefetchUtilisation: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if tuned[i].MeanMBps < base[i].MeanMBps*2 {
			t.Errorf("%s: prefetcher gain %.2fx, want > 2x headroom",
				base[i].Kernel, tuned[i].MeanMBps/base[i].MeanMBps)
		}
	}
	// Fully tuned, Monte Cimone's efficiency rises above the paper's
	// "lower quartile" towards the comparison machines' range.
	if eff := tuned[0].EfficiencyOfPeak; eff < 0.45 {
		t.Errorf("tuned copy efficiency = %.3f, want > 0.45", eff)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{WorkingSetBytes: 0}); err == nil {
		t.Error("zero working set accepted")
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	a, err := Run(Config{WorkingSetBytes: DDRWorkingSetBytes, RNG: sim.NewRNG(9)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{WorkingSetBytes: DDRWorkingSetBytes, RNG: sim.NewRNG(9)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].MeanMBps != b[i].MeanMBps || a[i].StdMBps != b[i].StdMBps {
			t.Fatal("results not deterministic")
		}
	}
}

// Property: modelled bandwidth never exceeds the machine's peak and L2 sets
// are at least as fast as DDR sets for the copy kernel.
func TestModelBoundsProperty(t *testing.T) {
	m := soc.FU740()
	prop := func(setMiB uint16, threads uint8) bool {
		set := int64(setMiB%2000+1) * 1024 * 1024 / 3 * 3
		opts := soc.StreamOptions{Threads: int(threads)%4 + 1}
		results, err := Run(Config{Machine: m, WorkingSetBytes: set, Opts: opts})
		if err != nil {
			return false
		}
		for _, r := range results {
			if r.MeanMBps*1e6 > m.PeakDDRBandwidth*1.001 && set > m.L2Bytes {
				return false
			}
			if r.MeanMBps <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
