package main

import (
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestStatsOnFixedInputs(t *testing.T) {
	// Quartiles as Python's statistics.quantiles(xs, n=4) gives them.
	for _, tc := range []struct {
		xs             []float64
		q1, med, q3    float64
		p50, p90, p100 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5, 9, 10},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 3.75, 7.75, 3.5, 9, 9},
		{[]float64{7, 7}, 7, 7, 7, 7, 7, 7},
		{[]float64{5, 1, 4}, 1, 4, 5, 4, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 || median(tc.xs) != tc.med {
			t.Errorf("%v: quartiles %v %v median %v, want %v %v %v", tc.xs, q1, q3, median(tc.xs), tc.q1, tc.q3, tc.med)
		}
		for _, p := range []struct{ p, want float64 }{{50, tc.p50}, {90, tc.p90}, {100, tc.p100}} {
			if got := percentile(tc.xs, p.p); got != p.want {
				t.Errorf("%v: p%v = %v, want %v", tc.xs, p.p, got, p.want)
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q unit %q: malformed", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: malformed name", w.name)
		}
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ unit, better string }
	check := func(kind string, declared map[string]decl, harness []metric) {
		t.Helper()
		for _, m := range harness {
			d, ok := declared[m.name]
			switch {
			case !ok:
				t.Errorf("%s metric %q is not in BENCHMARK.json", kind, m.name)
			case d != decl{m.unit, m.better}:
				t.Errorf("%s metric %q: BENCHMARK.json says %v, harness %v", kind, m.name, d, decl{m.unit, m.better})
			}
			delete(declared, m.name)
		}
		for name := range declared {
			t.Errorf("BENCHMARK.json %s metric %q is not printed by the harness", kind, name)
		}
	}
	e2e := map[string]decl{}
	var maxOther float64
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = decl{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > maxOther {
			maxOther = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound < maxOther {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxOther)
		}
	}
	check("end-to-end", e2e, endToEnd)
	layer := map[string]decl{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = decl{m.Unit, m.Better}
	}
	check("per-layer", layer, perLayer)

	var declared, harness []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		harness = append(harness, w.name)
	}
	sort.Strings(declared)
	sort.Strings(harness)
	if len(declared) != len(harness) {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", declared, harness)
	}
	for i := range declared {
		if declared[i] != harness[i] {
			t.Fatalf("BENCHMARK.json workloads %v, harness %v", declared, harness)
		}
	}
}

// TestTinyPassEmitsDeclaredMetrics runs every workload at its tiny size,
// untraced and traced, and checks that the outputs are correct and that
// each run prints exactly the declared metrics.
func TestTinyPassEmitsDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(w, 1, 0, trace, true, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			var shares float64
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.name, v, m.unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.name, v.Value)
				}
				if strings.HasSuffix(m.name, ".cpu_share") {
					shares += v.Value
				}
			}
			if trace && shares != 0 && math.Abs(shares-1) > 1e-9 {
				t.Errorf("%s: cpu shares sum to %v", w.name, shares)
			}
		}
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestProfileAttributesBusyLoopToHarness(t *testing.T) {
	prof := newCPUProfile()
	p, err := startProfiling(true)
	if err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	if err := p.stop(prof); err != nil {
		t.Fatal(err)
	}
	if prof.totalNS == 0 {
		t.Fatal("no CPU samples")
	}
	var sum float64
	for _, l := range layers {
		sum += prof.share(l)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if got := prof.share("bench"); got < 0.8 {
		t.Errorf("busy loop attributed %.2f to the harness, want >= 0.8 (%v)", got, prof.byLayer)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Exp", "montecimone/internal/thermal.(*Model).Step", "montecimone/internal/node.(*Node).SyncTo"}, "thermal"},
		{[]string{"runtime.mallocgc", "montecimone/internal/node.(*Node).SyncTo", "main.runCampaign"}, "node"},
		{[]string{"montecimone/internal/sim.(*eventQueue[...]).push", "main.main"}, "sim"},
		{[]string{"montecimone/internal/report.(*Table).Write", "main.main"}, "other"},
		{[]string{"net/http.(*persistConn).readLoop", "main.(*qsClient).load"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		var xs []float64
		for _, x := range base {
			xs = append(xs, x*f)
		}
		return xs
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"same", base, base, false, "ok"},
		{"slower within bound", base, scale(1.05), false, "ok"},
		{"slower beyond bound", base, scale(1.2), false, "regressed"},
		{"throughput drop", base, scale(0.8), true, "regressed"},
		{"throughput gain", base, scale(1.3), true, "ok"},
		{"noisy", base, noisy, false, "unresolved"},
		{"noisy but every run better", noisy, scale(0.5), false, "ok"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.higherBetter, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestGoldenHashesCommitted(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			h, ok := goldenDigest(w.name, seed)
			if ok != w.golden {
				t.Errorf("%s seed %d: golden present = %v, want %v", w.name, seed, ok, w.golden)
			}
			if ok && !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(h) {
				t.Errorf("%s seed %d: golden %q is not a sha256 hex digest", w.name, seed, h)
			}
		}
	}
}
