package examon

// Sample is one typed telemetry measurement: the identifying tag set plus
// the (timestamp, value) pair. It is the unit of the telemetry API —
// plugins hand batches of Samples to the broker, and the broker hands them
// to the store, which persists them — so a measurement crosses
// the whole stack without being rendered to the Table II string encoding.
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
}

// ViewOf wraps an owned slice as a view.
func ViewOf(pts []Point) PointsView { return PointsView{pts: pts} }

// Len returns the number of points in the view.
func (v PointsView) Len() int { return len(v.pts) }

// At returns point i in storage (arrival) order.
func (v PointsView) At(i int) Point { return v.pts[i] }

// Cursor returns an allocation-free iterator over the view restricted to
// the [from, to) time range; to == 0 means unbounded, mirroring Filter.
func (v PointsView) Cursor(from, to float64) Cursor {
	return Cursor{view: v, from: from, to: to}
}

// Cursor iterates a PointsView with Filter time-range semantics, the
// alternative to the copy-everything Query path: callers stream points out
// of the store without any per-query allocation.
type Cursor struct {
	view     PointsView
	i        int
	from, to float64
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
			continue
		}
		return p, true
	}
	return Point{}, false
}
