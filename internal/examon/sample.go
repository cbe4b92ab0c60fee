package examon

import "math"

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

// PointsView is a read-only window over a series' stored points, as they
// were when it was taken: the chain of sealed chunks, the open chunk's
// whole words by length plus a copy of its pending bits, and a copy of
// the series' last points. Later inserts never rewrite any of it — sealed
// chunks are immutable, appends write past the view's words, and a seal
// starts a fresh open buffer instead of reusing the old one — so a view
// stays valid, lock-free, for as long as it is held.
type PointsView struct {
	head    *sealedChunk // first of nsealed sealed chunks
	nsealed int
	open    bitWriter // the open chunk's words and pending bits
	openT   float64   // the open chunk's first time
	nopen   int       // points in the open chunk
	// recent holds the view's last min(Len, ringLen) points, oldest
	// first.
	recent [ringLen]Point
	// sorted is set on views whose points have non-decreasing, non-NaN
	// timestamps; Cursor then seeks instead of filtering. Later inserts
	// never touch the view's points, so the flag stays true for them.
	sorted bool
}

// Len returns the number of points in the view.
func (v PointsView) Len() int { return v.nsealed*chunkCap + v.nopen }

// Cursor returns an allocation-free iterator over the view restricted to
// the [from, to) time range; to == 0 means unbounded, mirroring Filter.
// Points come in storage (arrival) order, decoded as the cursor reaches
// them. Over a time-ordered view with non-NaN bounds it seeks: it serves
// the range from the raw last points when from lies above the oldest of
// them (nothing earlier can be in range) or when they are the whole
// series, and otherwise skips the sealed chunks that end before from; it
// stops at the first point at or after to. Other views test every point.
// Both yield the same points.
func (v PointsView) Cursor(from, to float64) Cursor {
	c := Cursor{rest: v, from: from, to: to}
	if v.sorted && !math.IsNaN(from) && !math.IsNaN(to) {
		c.seek = true
		if n := v.Len(); n <= ringLen || from > v.recent[0].T {
			c.rest.nsealed, c.rest.nopen, c.nrecent = 0, 0, min(n, ringLen)
			return c
		}
		for c.rest.nsealed > 0 && c.rest.head.lastT < from {
			c.skipChunk()
		}
	}
	return c
}

// all returns a cursor over every point of the view: no timestamp, NaN
// included, is below -Inf, and to == 0 is unbounded.
func (v PointsView) all() Cursor { return v.Cursor(math.Inf(-1), 0) }

// Cursor iterates a PointsView with Filter time-range semantics, the
// alternative to the copy-everything Query path: callers stream points out
// of the store without any per-query allocation. It reads the sealed
// chunks, then the open chunk, then — only when it serves the range from
// them alone — the raw last points.
type Cursor struct {
	// rest is the part of the view not yet started: rest.head is the next
	// sealed chunk to decode, rest.nsealed counts it and the ones after
	// it, and rest.nopen drops to 0 once the open chunk starts.
	rest     PointsView
	left     int // points still to decode from dec's chunk
	dec      chunkDecoder
	ri       int // next recent point
	nrecent  int // recent points to serve
	from, to float64
	seek     bool // time-ordered view: no point past the first >= to is in range
}

// skipChunk passes over the next sealed chunk. It never follows the link
// out of the view's last chunk, which a later seal may be writing.
func (c *Cursor) skipChunk() {
	if c.rest.nsealed--; c.rest.nsealed > 0 {
		c.rest.head = c.rest.head.next
	}
}

// Next returns the next in-range point, or ok == false when exhausted.
func (c *Cursor) Next() (p Point, ok bool) {
	for {
		switch r := &c.rest; {
		case c.left > 0:
			p = c.dec.next()
			c.left--
		case r.nsealed > 0:
			p = c.dec.reset(bitReader{b: r.head.data}, r.head.firstT)
			c.left = chunkCap - 1
			c.skipChunk()
		case r.nopen > 0:
			p = c.dec.reset(bitReader{b: r.open.b, last: r.open.acc, nlast: r.open.n}, r.openT)
			c.left = r.nopen - 1
			r.nopen = 0
		case c.ri < c.nrecent:
			p = r.recent[c.ri]
			c.ri++
		default:
			return Point{}, false
		}
		if p.T < c.from {
			continue
		}
		if c.to != 0 && p.T >= c.to {
			if c.seek {
				c.left, c.rest.nsealed, c.rest.nopen, c.ri = 0, 0, 0, c.nrecent
				return Point{}, false
			}
			continue
		}
		return p, true
	}
}
