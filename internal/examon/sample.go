package examon

import (
	"math"
	"sort"
)

// Sample is one typed telemetry measurement: the identifying tag set plus
// the (timestamp, value) pair. It is the unit of the tag-keyed telemetry
// API — Broker.PublishBatch and MemStore.InsertBatch take batches of
// Samples — so a measurement crosses the whole stack without being
// rendered to the Table II string encoding. Publishers with a fixed set
// of streams register series handles instead (Broker.Register).
type Sample struct {
	// Tags identify the stream the sample belongs to.
	Tags Tags
	// T is the virtual timestamp (seconds); V the value.
	T, V float64
}

// PointsView is a read-only window over a series' stored points. It exists
// so the store can expose its backing buffers without copying: a view
// covers the append-only prefix stored when it was taken, which later
// inserts never modify. Readers must not write through it.
type PointsView struct {
	pts []Point
	// sorted is set on store views whose prefix has non-decreasing, non-NaN
	// timestamps; Cursor then seeks instead of filtering. Later inserts
	// never touch the prefix, so the flag stays true for it.
	sorted bool
}

// ViewOf wraps an owned slice as a view. Its order is not known, so its
// cursors filter every point.
func ViewOf(pts []Point) PointsView { return PointsView{pts: pts} }

// Len returns the number of points in the view.
func (v PointsView) Len() int { return len(v.pts) }

// At returns point i in storage (arrival) order.
func (v PointsView) At(i int) Point { return v.pts[i] }

// Cursor returns an allocation-free iterator over the view restricted to
// the [from, to) time range; to == 0 means unbounded, mirroring Filter.
// Over a time-ordered store view with non-NaN bounds it binary-searches
// to from and stops at the first point at or after to; otherwise it
// tests every point. Both yield the same points.
func (v PointsView) Cursor(from, to float64) Cursor {
	c := Cursor{view: v, from: from, to: to}
	if v.sorted && !math.IsNaN(from) && !math.IsNaN(to) {
		c.seek = true
		c.i = sort.Search(len(v.pts), func(i int) bool { return v.pts[i].T >= from })
	}
	return c
}

// Cursor iterates a PointsView with Filter time-range semantics, the
// alternative to the copy-everything Query path: callers stream points out
// of the store without any per-query allocation.
type Cursor struct {
	view     PointsView
	i        int
	from, to float64
	seek     bool // time-ordered view: no point past the first >= to is in range
}

// Next returns the next in-range point, or ok == false when exhausted.
func (c *Cursor) Next() (p Point, ok bool) {
	for c.i < c.view.Len() {
		p = c.view.At(c.i)
		c.i++
		if p.T < c.from {
			continue
		}
		if c.to != 0 && p.T >= c.to {
			if c.seek {
				c.i = c.view.Len()
				break
			}
			continue
		}
		return p, true
	}
	return Point{}, false
}
