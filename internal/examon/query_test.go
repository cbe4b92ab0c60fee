package examon

import (
	"math"
	"reflect"
	"testing"
)

func aggStore(t *testing.T) Storage {
	t.Helper()
	st := NewMemStore()
	// A cumulative counter growing 10/s, sampled at 1 Hz for 10 s.
	counter := confTags(1, 0, "instret")
	for i := 0; i <= 10; i++ {
		st.Insert(counter, float64(i), float64(i*10))
	}
	// A gauge with a spike.
	gauge := confTags(1, -1, "temperature.cpu_temp")
	for i := 0; i <= 10; i++ {
		v := 40.0
		if i == 7 {
			v = 90
		}
		st.Insert(gauge, float64(i), v)
	}
	return st
}

func TestQueryAggOps(t *testing.T) {
	st := aggStore(t)
	gauge := Filter{Metric: "temperature.cpu_temp"}

	for _, tc := range []struct {
		op   AggOp
		want float64
		n    int
	}{
		{AggMin, 40, 11},
		{AggMax, 90, 11},
		{AggSum, 10*40 + 90, 11},
		{AggAvg, (10*40 + 90) / 11.0, 11},
	} {
		agg, err := QueryAgg(st, gauge, AggOptions{Op: tc.op})
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if len(agg) != 1 || len(agg[0].Points) != 1 {
			t.Fatalf("%s: agg = %+v", tc.op, agg)
		}
		p := agg[0].Points[0]
		if math.Abs(p.V-tc.want) > 1e-12 || p.N != tc.n || p.T != 0 {
			t.Errorf("%s = %+v, want V=%v N=%d", tc.op, p, tc.want, tc.n)
		}
	}
}

func TestQueryAggStepDownsampling(t *testing.T) {
	st := aggStore(t)
	agg, err := QueryAgg(st, Filter{Metric: "temperature.cpu_temp", From: 0, To: 10},
		AggOptions{Op: AggMax, Step: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	// Buckets [0,2.5) [2.5,5) [5,7.5) [7.5,10): the spike at t=7 lands in
	// the third bucket.
	want := []AggPoint{
		{T: 0, V: 40, N: 3}, {T: 2.5, V: 40, N: 2},
		{T: 5, V: 90, N: 3}, {T: 7.5, V: 40, N: 2},
	}
	if len(agg) != 1 || !reflect.DeepEqual(agg[0].Points, want) {
		t.Errorf("downsampled = %+v, want %+v", agg, want)
	}
}

func TestQueryAggRate(t *testing.T) {
	st := aggStore(t)
	agg, err := QueryAgg(st, Filter{Metric: "instret", From: 5, To: 10},
		AggOptions{Op: AggRate, Step: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	// The counter grows exactly 10/s; the rate point at t=5 needs the
	// out-of-range predecessor at t=4, which the scan layer must provide.
	want := []AggPoint{{T: 5, V: 10, N: 3}, {T: 7.5, V: 10, N: 2}}
	if len(agg) != 1 || !reflect.DeepEqual(agg[0].Points, want) {
		t.Errorf("rate agg = %+v, want %+v", agg, want)
	}
	// Whole-range rate.
	agg, err = QueryAgg(st, Filter{Metric: "instret"}, AggOptions{Op: AggRate})
	if err != nil {
		t.Fatal(err)
	}
	if p := agg[0].Points[0]; p.V != 10 || p.N != 10 {
		t.Errorf("whole-range rate = %+v", p)
	}
}

func TestQueryAggEmptyAndSilentSeries(t *testing.T) {
	st := aggStore(t)
	// No matching series: empty result, not nil semantics trouble.
	agg, err := QueryAgg(st, Filter{Node: "mc99"}, AggOptions{Op: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if agg == nil || len(agg) != 0 {
		t.Errorf("no-match agg = %#v, want empty non-nil", agg)
	}
	// Matching series with no in-range samples: returned with no points.
	agg, err = QueryAgg(st, Filter{Metric: "instret", From: 100}, AggOptions{Op: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 1 || len(agg[0].Points) != 0 {
		t.Errorf("silent series agg = %+v", agg)
	}
	// A single-point series has no rate (documented Rate boundary).
	single := NewMemStore()
	single.Insert(confTags(1, -1, "m"), 1, 100)
	agg, err = QueryAgg(single, Filter{}, AggOptions{Op: AggRate})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 1 || len(agg[0].Points) != 0 {
		t.Errorf("single-point rate agg = %+v, want one empty series", agg)
	}
}

func TestQueryAggValidation(t *testing.T) {
	st := NewMemStore()
	if _, err := QueryAgg(nil, Filter{}, AggOptions{Op: AggAvg}); err == nil {
		t.Error("nil storage accepted")
	}
	if _, err := QueryAgg(st, Filter{}, AggOptions{}); err == nil {
		t.Error("missing operator accepted")
	}
	if _, err := QueryAgg(st, Filter{}, AggOptions{Op: "median"}); err == nil {
		t.Error("unknown operator accepted")
	}
	if _, err := QueryAgg(st, Filter{}, AggOptions{Op: AggAvg, Step: -1}); err == nil {
		t.Error("negative step accepted")
	}
	if _, err := QueryAgg(st, Filter{}, AggOptions{Op: AggAvg, Step: math.NaN()}); err == nil {
		t.Error("NaN step accepted")
	}
	st.Insert(confTags(1, -1, "m"), 1, 2)
	for _, f := range []Filter{{From: math.NaN()}, {To: math.NaN()}} {
		if _, err := QueryAgg(st, f, AggOptions{Op: AggAvg, Step: 60}); err == nil {
			t.Errorf("NaN time bound accepted: %+v", f)
		}
	}
}

// TestRateBoundaries pins the documented Rate edge cases: fewer than two
// points yield an empty series (no error), and zero-dt pairs are skipped.
func TestRateBoundaries(t *testing.T) {
	if got := Rate(Series{}); len(got.Points) != 0 {
		t.Errorf("empty series rate = %+v", got)
	}
	if got := Rate(Series{Points: []Point{{T: 5, V: 100}}}); len(got.Points) != 0 {
		t.Errorf("single-point rate = %+v, want empty (documented boundary)", got)
	}
	// Two points, zero dt: still empty.
	if got := Rate(Series{Points: []Point{{T: 5, V: 100}, {T: 5, V: 200}}}); len(got.Points) != 0 {
		t.Errorf("zero-dt rate = %+v", got)
	}
}

// TestFilterToZeroBoundary pins the documented Filter.To semantics: To == 0
// means unbounded, so "everything up to and including t=0" is inexpressible
// with To alone — the closest expressible query uses the smallest positive
// float as the exclusive bound.
func TestFilterToZeroBoundary(t *testing.T) {
	st := NewMemStore()
	tags := confTags(1, -1, "m")
	st.Insert(tags, 0, 1)
	st.Insert(tags, 1, 2)
	// To=0 returns everything, including t >= 1.
	if got := st.Query(Filter{To: 0}); len(got[0].Points) != 2 {
		t.Errorf("To=0 = %d points, want 2 (unbounded)", len(got[0].Points))
	}
	// The t=0 sample alone needs an explicit positive exclusive bound.
	got := st.Query(Filter{To: math.SmallestNonzeroFloat64})
	if len(got[0].Points) != 1 || got[0].Points[0].T != 0 {
		t.Errorf("tiny-To query = %+v, want just the t=0 sample", got[0].Points)
	}
}

func TestPointsViewAndCursor(t *testing.T) {
	pts := []Point{{T: 0, V: 0}, {T: 1, V: 10}, {T: 2, V: 20}, {T: 3, V: 30}}
	v := ViewOf(pts)
	if v.Len() != 4 {
		t.Errorf("len = %d", v.Len())
	}
	for i := range pts {
		if v.At(i) != pts[i] {
			t.Errorf("At(%d) = %+v", i, v.At(i))
		}
	}
	if got := v.Append(nil); !reflect.DeepEqual(got, pts) {
		t.Errorf("append = %+v", got)
	}
	cur := v.Cursor(1, 3)
	var got []Point
	for p, ok := cur.Next(); ok; p, ok = cur.Next() {
		got = append(got, p)
	}
	if !reflect.DeepEqual(got, pts[1:3]) {
		t.Errorf("cursor = %+v, want %+v", got, pts[1:3])
	}
	// Exhausted cursor stays exhausted.
	cur = v.Cursor(100, 0)
	if _, ok := cur.Next(); ok {
		t.Error("out-of-range cursor yielded a point")
	}
}
