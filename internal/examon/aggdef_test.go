package examon

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// aggByDefinition is QueryAgg written from its definition, sharing no
// code with the stores' accumulation: it reads each matching series'
// points through Query (the cursor's range filter), puts a sample at t in
// bucket floor((t−From)/Step) (every sample in one bucket at From when
// Step is 0, none for a negative or NaN quotient), folds each bucket's
// samples in storage order, and for rate differences the full series
// with Rate first and keeps the rate points in [From, To).
func aggByDefinition(st *MemStore, f Filter, opts AggOptions) ([]AggSeries, error) {
	if !slices.Contains([]AggOp{AggAvg, AggMin, AggMax, AggSum, AggRate}, opts.Op) {
		return nil, fmt.Errorf("operator %q", opts.Op)
	}
	if !(opts.Step >= 0) || math.IsInf(opts.Step, 1) || math.IsNaN(f.From) || math.IsNaN(f.To) {
		return nil, fmt.Errorf("bad step %v or range [%v,%v)", opts.Step, f.From, f.To)
	}
	if opts.Step > 0 && f.To != 0 && (f.To-f.From)/opts.Step > maxAggBuckets {
		return nil, fmt.Errorf("grid over %d buckets", maxAggBuckets)
	}
	all := f
	all.From, all.To = math.Inf(-1), 0
	full, inRange := st.Query(all), st.Query(f)
	out := []AggSeries{}
	for i, s := range full {
		type bucket struct {
			sum, min, max float64
			n             int
		}
		buckets := map[int]*bucket{}
		var tooMany error
		fold := func(t, v float64) {
			k := 0
			if opts.Step > 0 {
				q := math.Floor((t - f.From) / opts.Step)
				switch {
				case math.IsNaN(q) || q < 0:
					return
				case q >= maxAggBuckets:
					tooMany = fmt.Errorf("sample at t=%v past the bucket cap", t)
					return
				}
				k = int(q)
			}
			b := buckets[k]
			if b == nil {
				b = &bucket{min: v, max: v}
				buckets[k] = b
			}
			if v < b.min {
				b.min = v
			}
			if v > b.max {
				b.max = v
			}
			b.sum += v
			b.n++
		}
		if opts.Op == AggRate {
			for _, p := range Rate(s).Points {
				if !(p.T < f.From) && !(f.To != 0 && p.T >= f.To) {
					fold(p.T, p.V)
				}
			}
		} else {
			for _, p := range inRange[i].Points {
				fold(p.T, p.V)
			}
		}
		if tooMany != nil {
			return nil, tooMany
		}
		as := AggSeries{Tags: s.Tags}
		keys := make([]int, 0, len(buckets))
		for k := range buckets {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b := buckets[k]
			p := AggPoint{T: f.From + float64(k)*opts.Step, N: b.n}
			if opts.Step == 0 {
				p.T = f.From
			}
			switch opts.Op {
			case AggMin:
				p.V = b.min
			case AggMax:
				p.V = b.max
			case AggSum:
				p.V = b.sum
			default:
				p.V = b.sum / float64(b.n)
			}
			as.Points = append(as.Points, p)
		}
		out = append(out, as)
	}
	return out, nil
}

// sameAgg compares two results bit for bit, except that any two NaN
// values (a rate over a NaN or infinite time) compare equal.
func sameAgg(a, b []AggSeries) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tags != b[i].Tags || len(a[i].Points) != len(b[i].Points) {
			return false
		}
		for j, p := range a[i].Points {
			q := b[i].Points[j]
			if !same(p.T, q.T) || !same(p.V, q.V) || p.N != q.N {
				return false
			}
		}
	}
	return true
}

// FuzzQueryAggMatchesDefinition stores fuzzed points in two series of the
// default store and of the reference store, then checks one fuzzed query
// on both against aggByDefinition. Each 3-byte record appends 1 to 128
// points, up to four chunks' worth in all: byte 0's low bit picks the
// series and its other bits the count; byte 1 is a dyadic value that each
// further point raises by 1/4, so every sum is exact however it is
// regrouped; byte 2 moves the time forward or back by a multiple of 1/4
// at each point, or makes each point's time NaN or infinite. The
// operator, step, From and To are small integers scaled to dyadic values,
// so aligned rollup queries come up.
func FuzzQueryAggMatchesDefinition(f *testing.F) {
	inOrder := []byte{0xFE, 4, 2, 0xFF, 8, 2, 0xFE, 12, 2, 0xFF, 1, 1}
	f.Add(inOrder, uint8(0), int8(0), uint8(0), uint8(200))  // avg, step 60, unbounded
	f.Add(inOrder, uint8(3), int8(4), uint8(12), uint8(201)) // sum, step 120 over [60,180)
	f.Add(inOrder, uint8(4), int8(0), uint8(0), uint8(4))    // rate, step 1
	f.Add(inOrder, uint8(1), int8(-4), uint8(0), uint8(0))   // min over everything from -60
	f.Add([]byte{6, 1, 8, 1, 2, 0xFF, 0, 3, 8, 1, 4, 0xE0, 4, 5, 0xFE, 1, 6, 0, 0, 7, 0xFD},
		uint8(4), int8(0), uint8(0), uint8(7)) // NaN, backwards, repeated and infinite times
	f.Add([]byte{0x20, 3, 2, 0, 2, 0xC1, 0x21, 3, 9}, uint8(2), int8(-8), uint8(40), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, op uint8, from int8, to, step uint8) {
		fast, slow := NewMemStore(), reference()
		tm := 0.0
		for n := 0; len(data) >= 3 && n < 4*chunkCap; data = data[3:] {
			tags := confTags(int(data[0]&1), -1, "m")
			for i := 0; i <= int(data[0]>>1); i, n = i+1, n+1 {
				pt := tm
				switch c := data[2]; {
				case c == 0xFF:
					pt = math.NaN()
				case c == 0xFE:
					pt = math.Inf(1)
				case c == 0xFD:
					pt = math.Inf(-1)
				case c >= 0xC0:
					tm -= float64(c-0xC0) / 4
					pt = tm
				default:
					tm += float64(c) / 4
					pt = tm
				}
				v := float64(int8(data[1]))/4 + float64(i)/4
				fast.Insert(tags, pt, v)
				slow.Insert(tags, pt, v)
			}
		}
		q := Filter{From: float64(from) * 15, To: float64(to) * 15}
		ops := []AggOp{AggAvg, AggMin, AggMax, AggSum, AggRate}
		opts := AggOptions{Op: ops[int(op)%len(ops)], Step: float64(step) / 4}
		if step >= 200 {
			opts.Step = float64(step-199) * 60
		}
		want, werr := aggByDefinition(slow, q, opts)
		for i, st := range []*MemStore{fast, slow} {
			got, err := QueryAgg(st, q, opts)
			if (err == nil) != (werr == nil) || !sameAgg(got, want) {
				t.Fatalf("store %d (0 default, 1 reference), %+v %+v:\n got %+v (%v)\nwant %+v (%v)",
					i, q, opts, got, err, want, werr)
			}
		}
	})
}

// TestQueryAggSkipsNaNTime: a sample with a NaN time lies on no bucket of
// a stepped query, like a sample before From, in raw and rate
// aggregation, in BuildHeatmap and over REST; a query without a step
// keeps it in its single bucket.
func TestQueryAggSkipsNaNTime(t *testing.T) {
	st := NewMemStore()
	tags := confTags(2, 0, "instret")
	for i, tm := range []float64{0, 0.5, math.NaN(), 1, 1.5} {
		st.Insert(tags, tm, float64(i))
	}
	for _, tc := range []struct {
		opts AggOptions
		want []AggPoint
	}{
		{AggOptions{Op: AggAvg, Step: 1}, []AggPoint{{T: 0, V: 0.5, N: 2}, {T: 1, V: 3.5, N: 2}}},
		{AggOptions{Op: AggAvg}, []AggPoint{{T: 0, V: 2, N: 5}}},
		// Rate pairs each point with its predecessor, NaN-time ones
		// included (Rate skips only dt <= 0): the rate at t=1 is NaN.
		{AggOptions{Op: AggRate, Step: 1}, []AggPoint{{T: 0, V: 2, N: 1}, {T: 1, V: math.NaN(), N: 2}}},
	} {
		got, err := QueryAgg(st, Filter{}, tc.opts)
		if err != nil {
			t.Fatalf("%+v: %v", tc.opts, err)
		}
		if want := []AggSeries{{Tags: tags, Points: tc.want}}; !sameAgg(got, want) {
			t.Errorf("%+v: got %+v, want %+v", tc.opts, got, want)
		}
	}
	hm, err := BuildHeatmap(st, []string{"mc02"}, HeatmapOptions{Plugin: "pmu_pub", Metric: "instret",
		From: 0, To: 2, BinWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{0.5, 3.5}}; !reflect.DeepEqual(hm.Values, want) {
		t.Errorf("heatmap = %v, want %v", hm.Values, want)
	}
	srv, err := NewRESTServer(st)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v2/query?agg=avg&step=1", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /api/v2/query?agg=avg&step=1: %d %s", rec.Code, rec.Body)
	}
}

// TestRollupViewSurvivesIngest: a snapshot shares its tiers' closed
// buckets with ingest, so its aligned answer must not move while a
// writer keeps appending in order into the snapshot's last bucket and
// into new buckets, growing the tier's slice. Under -race this is the
// check that ingest never writes what a view shares.
func TestRollupViewSurvivesIngest(t *testing.T) {
	st := NewMemStore()
	tags := confTags(1, 0, "instret")
	for i := 0; i < 150; i++ { // bucket 0 and half of bucket 1
		st.Insert(tags, float64(i)*0.5, float64(i))
	}
	f, opts := Filter{Metric: "instret"}, AggOptions{Op: AggSum, Step: 60}
	snaps := st.snapshot(nil, f, true)
	if len(snaps) != 1 || snaps[0].roll.step == 0 {
		t.Fatalf("snapshot %+v holds no tier", snaps)
	}
	var served atomic.Uint64
	want := []AggSeries{{Tags: tags, Points: []AggPoint{{T: 0, V: 119 * 120 / 2, N: 120},
		{T: 60, V: (120 + 149) * 30 / 2, N: 30}}}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 150; i < 20000; i++ {
			st.Insert(tags, float64(i)*0.5, float64(i))
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
			runtime.Gosched()
		}
		got, err := aggSnapshots(nil, snaps, f, opts, &served)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("the view's answer moved: %+v (%v), want %+v", got, err, want)
		}
	}
	got, err := QueryAgg(st, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got[0].Points); n != 167 || got[0].Points[1].N != 120 {
		t.Errorf("a fresh query reads %d buckets, the second %+v; want 167 and a full one", n, got[0].Points[1])
	}
}

// TestRollupQueryAllocsPerSeries: an aligned query answered from the
// tiers allocates nothing per series: the series' points share one array
// (2 allocations a query at 64 series and 3 at 512 on linux/amd64; a few
// more under -race, where sync.Pool drops some snapshot slices). A
// copied tier or a slice per series adds at least one allocation a
// series.
func TestRollupQueryAllocsPerSeries(t *testing.T) {
	allocs := func(series int) float64 {
		st := NewMemStore()
		for i := 0; i < series; i++ {
			tags := confTags(i, -1, "temperature.cpu_temp")
			for k := 0; k < 240; k++ {
				st.Insert(tags, float64(k)*0.5, float64(40+k%7))
			}
		}
		f := Filter{Metric: "temperature.cpu_temp", From: 0, To: 120}
		opts := AggOptions{Op: AggMax, Step: 60}
		dst, err := QueryAggInto(nil, st, f, opts)
		if err != nil || len(dst) != series || len(dst[0].Points) != 2 {
			t.Fatalf("%d series: %d results (%v)", series, len(dst), err)
		}
		return testing.AllocsPerRun(20, func() {
			dst, _ = QueryAggInto(dst[:0], st, f, opts)
		})
	}
	small, large := allocs(64), allocs(512)
	t.Logf("allocations a query: %v at 64 series, %v at 512", small, large)
	if perSeries := (large - small) / (512 - 64); perSeries > 0.05 {
		t.Errorf("allocations a query: %v at 64 series, %v at 512, %.3f a series; want at most 0.05",
			small, large, perSeries)
	}
}

// TestFineStepQueryBytes: a query whose step grid nears maxAggBuckets over
// sparse series allocates for the buckets it fills, not for its grid.
// Sixteen series of two points, 1,000 s apart, at a step of 1/1024 s span
// a grid of 1,024,001 buckets; a dense grid of them is 32 MB.
func TestFineStepQueryBytes(t *testing.T) {
	const bound = 1 << 20
	st := NewMemStore()
	for i := 0; i < 16; i++ {
		st.Insert(confTags(i, -1, "uptime"), 0, 1)
		st.Insert(confTags(i, -1, "uptime"), 1000, 2)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := QueryAgg(st, Filter{Metric: "uptime"}, AggOptions{Op: AggAvg, Step: 1.0 / 1024})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 || len(got[15].Points) != 2 || got[15].Points[1].T != 1000 {
		t.Fatalf("result %+v", got[15])
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > bound {
		t.Errorf("the query allocated %d bytes, want at most %d", b, bound)
	}
}
