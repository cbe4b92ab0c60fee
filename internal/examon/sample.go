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

// PointsView is a read-only window over a series' stored points: the
// chain of sealed chunks and the raw open-chunk prefix stored when it was
// taken. Later inserts never rewrite either — sealed chunks are immutable
// and the store stops reusing an open chunk's buffer once a view holds it
// — so a view stays valid, lock-free, for as long as it is held.
type PointsView struct {
	head    *sealedChunk // first of nsealed sealed chunks
	nsealed int
	open    []Point
	// sorted is set on views whose points have non-decreasing, non-NaN
	// timestamps; Cursor then seeks instead of filtering. Later inserts
	// never touch the view's points, so the flag stays true for them.
	sorted bool
}

// Len returns the number of points in the view.
func (v PointsView) Len() int { return v.nsealed*chunkCap + len(v.open) }

// Cursor returns an allocation-free iterator over the view restricted to
// the [from, to) time range; to == 0 means unbounded, mirroring Filter.
// Points come in storage (arrival) order, decoded as the cursor reaches
// them. Over a time-ordered view with non-NaN bounds it skips the sealed
// chunks that end before from, binary-searches the open chunk when every
// sealed chunk was skipped, and stops at the first point at or after to;
// otherwise it tests every point. Both yield the same points.
func (v PointsView) Cursor(from, to float64) Cursor {
	c := Cursor{next: v.head, chunks: v.nsealed, open: v.open, from: from, to: to}
	if v.sorted && !math.IsNaN(from) && !math.IsNaN(to) {
		c.seek = true
		for c.chunks > 0 && c.next.lastT < from {
			c.skipChunk()
		}
		if c.chunks == 0 {
			c.i = sort.Search(len(v.open), func(i int) bool { return v.open[i].T >= from })
		}
	}
	return c
}

// all returns a cursor over every point of the view: no timestamp, NaN
// included, is below -Inf, and to == 0 is unbounded.
func (v PointsView) all() Cursor { return v.Cursor(math.Inf(-1), 0) }

// Cursor iterates a PointsView with Filter time-range semantics, the
// alternative to the copy-everything Query path: callers stream points out
// of the store without any per-query allocation.
type Cursor struct {
	next     *sealedChunk // next sealed chunk to decode
	chunks   int          // sealed chunks not yet started, counting next
	left     int          // points still to decode from dec's chunk
	dec      chunkDecoder
	open     []Point
	i        int // next open-chunk index
	from, to float64
	seek     bool // time-ordered view: no point past the first >= to is in range
}

// skipChunk passes over the next sealed chunk. It never follows the link
// out of the view's last chunk, which a later seal may be writing.
func (c *Cursor) skipChunk() {
	if c.chunks--; c.chunks > 0 {
		c.next = c.next.next
	}
}

// Next returns the next in-range point, or ok == false when exhausted.
func (c *Cursor) Next() (p Point, ok bool) {
	for {
		switch {
		case c.left > 0:
			p = c.dec.next()
			c.left--
		case c.chunks > 0:
			p = c.dec.reset(c.next.data, c.next.firstT)
			c.left = chunkCap - 1
			c.skipChunk()
		case c.i < len(c.open):
			p = c.open[c.i]
			c.i++
		default:
			return Point{}, false
		}
		if p.T < c.from {
			continue
		}
		if c.to != 0 && p.T >= c.to {
			if c.seek {
				c.left, c.chunks, c.i = 0, 0, len(c.open)
				return Point{}, false
			}
			continue
		}
		return p, true
	}
}
