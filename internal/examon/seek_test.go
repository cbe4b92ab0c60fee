package examon

import (
	"math"
	"testing"
)

// linearFilter is the time-range rule of Filter written out point by
// point: the reference every Cursor must reproduce.
func linearFilter(pts []Point, from, to float64) []Point {
	var out []Point
	for _, p := range pts {
		if p.T < from {
			continue
		}
		if to != 0 && p.T >= to {
			continue
		}
		out = append(out, p)
	}
	return out
}

// samePoints compares bit patterns, so NaN timestamps compare equal.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) ||
			math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

func drain(c Cursor) []Point {
	var out []Point
	for p, ok := c.Next(); ok; p, ok = c.Next() {
		out = append(out, p)
	}
	return out
}

// storeView inserts the timestamps as one series, point i with value i,
// and returns the store's view of it.
func storeView(st *MemStore, metric string, times []float64) PointsView {
	for i, t := range times {
		st.Insert(confTags(1, -1, metric), t, float64(i))
	}
	return st.snapshot(Filter{Metric: metric}, false)[0].pts
}

// pointsOf returns the points storeView stores for the timestamps.
func pointsOf(times []float64) []Point {
	pts := make([]Point, len(times))
	for i, t := range times {
		pts[i] = Point{T: t, V: float64(i)}
	}
	return pts
}

// seekBounds returns cursor bounds around the given timestamps: on each
// point, between points, past both ends, To == 0, From >= To, and NaN and
// ±Inf on either side.
func seekBounds(times []float64) [][2]float64 {
	inf := math.Inf(1)
	nan := math.NaN()
	edges := []float64{0, -1, 1e9, -inf, inf, nan}
	for _, t := range times {
		edges = append(edges, t, t+0.25, t-0.25)
	}
	var out [][2]float64
	for _, from := range edges {
		for _, to := range edges {
			out = append(out, [2]float64{from, to})
		}
	}
	return out
}

// TestCursorSeekMatchesLinearFilter: over every series shape and bound,
// a store view's cursor yields exactly the points of the linear filter,
// and it seeks only over time-ordered, NaN-free series.
func TestCursorSeekMatchesLinearFilter(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name   string
		times  []float64
		sorted bool
	}{
		{"single", []float64{3}, true},
		{"sorted", []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}, true},
		{"sorted duplicates", []float64{1, 1, 1, 2, 2, 3, 3, 3, 3, 4}, true},
		{"negative and zero", []float64{-3, -1, 0, 0, 2}, true},
		{"infinities", []float64{-inf, -inf, -2, 0, 5, inf, inf}, true},
		{"unsorted", []float64{3, 1, 2, 2, 0, 5, 4}, false},
		{"late drop", []float64{0, 1, 2, 3, 4, 1.5}, false},
		{"NaN", []float64{0, 1, math.NaN(), 2, 3}, false},
		{"NaN first", []float64{math.NaN(), 1, 2}, false},
		{"NaN and infinities", []float64{-inf, math.NaN(), inf, 0}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := NewMemStore()
			v := storeView(st, "m", c.times)
			if v.sorted != c.sorted {
				t.Fatalf("view sorted = %v, want %v", v.sorted, c.sorted)
			}
			for _, b := range seekBounds(c.times) {
				from, to := b[0], b[1]
				cur := v.Cursor(from, to)
				if want := c.sorted && !math.IsNaN(from) && !math.IsNaN(to); cur.seek != want {
					t.Errorf("[%v,%v): seek = %v, want %v", from, to, cur.seek, want)
				}
				want := linearFilter(pointsOf(c.times), from, to)
				if got := drain(cur); !samePoints(got, want) {
					t.Errorf("[%v,%v): cursor %v, want %v", from, to, got, want)
				}
				q := st.Query(Filter{Metric: "m", From: from, To: to})
				if len(q) != 1 || !samePoints(q[0].Points, want) {
					t.Errorf("[%v,%v): Query %+v, want %v", from, to, q, want)
				}
			}
		})
	}
}

// TestSeekViewSurvivesOutOfOrderInsert: a view taken while its series was
// time-ordered keeps seeking over its prefix after an out-of-order insert
// extends the series, while views taken afterwards filter linearly.
func TestSeekViewSurvivesOutOfOrderInsert(t *testing.T) {
	st := NewMemStore()
	times := []float64{0, 1, 2, 3, 4, 5}
	before := storeView(st, "m", times)
	st.Insert(confTags(1, -1, "m"), 2.5, 99)
	st.Insert(confTags(1, -1, "m"), 6, 100)
	after := st.snapshot(Filter{Metric: "m"}, false)[0].pts
	if !before.sorted || after.sorted {
		t.Fatalf("sorted before/after = %v/%v, want true/false", before.sorted, after.sorted)
	}
	if before.Len() != len(times) || after.Len() != len(times)+2 {
		t.Fatalf("view lengths %d/%d", before.Len(), after.Len())
	}
	stored := append(pointsOf(times), Point{T: 2.5, V: 99}, Point{T: 6, V: 100})
	for _, b := range seekBounds(times) {
		for _, v := range []PointsView{before, after} {
			want := linearFilter(stored[:v.Len()], b[0], b[1])
			if got := drain(v.Cursor(b[0], b[1])); !samePoints(got, want) {
				t.Errorf("[%v,%v) over %d points: cursor %v, want %v", b[0], b[1], v.Len(), got, want)
			}
		}
	}
}
