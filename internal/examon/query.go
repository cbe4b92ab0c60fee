package examon

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// The v2 query layer: server-side aggregation with step-based
// downsampling, computed directly over the store's chunks through
// snapshot views and Cursor so a query never copies whole series. The
// dashboard heatmaps (BuildHeatmap) and the anomaly detector's ScanAll
// run on this layer, and the REST server exposes it as /api/v2/query.
//
// Three read-path layers sit under QueryAgg: the inverted tag index
// narrows which series are visited (index.go), a snapshot taken under the
// read lock is then walked on the calling goroutine in storage order with
// no lock held (storage.go), and aligned coarse-step queries are answered
// from the ingest-time rollup tiers without touching raw points
// (rollup.go). The reference store (WithLinearScan, WithRollup(-1)) skips
// the index and the tiers.
//
// Aggregation runs in time order. A rollup tier and a time-ordered view
// both yield a series' buckets in ascending order, so each series folds
// its samples into one open bucket and renders it as a point when the
// next bucket opens (aggStream): a query's cost follows the samples it
// reads, not the size of its step grid. Only a view that is not
// time-ordered pairs its samples with their buckets and stable-sorts the
// pairs first; every bucket adds its samples in storage order either way.

// AggOp selects the per-bucket aggregation of QueryAgg.
type AggOp string

// Aggregation operators.
const (
	// AggAvg is the mean of the samples in each bucket.
	AggAvg AggOp = "avg"
	// AggMin and AggMax keep the bucket extremes.
	AggMin AggOp = "min"
	AggMax AggOp = "max"
	// AggSum is the sum of the samples in each bucket.
	AggSum AggOp = "sum"
	// AggRate first differences the cumulative series (Rate semantics:
	// pairs with non-positive dt are skipped, the rate point sits at the
	// right endpoint) and then averages the rates in each bucket. The
	// predecessor point just outside the time range still contributes,
	// exactly like the Fig. 5 pipeline's unbounded query + Rate + bin.
	AggRate AggOp = "rate"
)

// AggOptions configure QueryAgg.
type AggOptions struct {
	// Op is the per-bucket aggregation.
	Op AggOp
	// Step is the downsampling bucket width in seconds: bucket k covers
	// [From + k*Step, From + (k+1)*Step). Step <= 0 disables downsampling
	// and aggregates the whole time range into a single bucket at From.
	Step float64
}

// AggPoint is one downsampled bucket.
type AggPoint struct {
	// T is the bucket start time; V the aggregated value; N the number of
	// samples aggregated (rate samples for AggRate). Empty buckets are
	// not emitted, so N >= 1.
	T float64
	V float64
	N int
}

// AggSeries is one aggregated series. A matching series with no samples in
// range is still returned, with empty Points, so callers can distinguish
// "series exists but is silent here" from "no such series".
type AggSeries struct {
	Tags   Tags
	Points []AggPoint
}

// aggAccum is one bucket: of a query's result under construction, or of a
// rollup tier.
type aggAccum struct {
	sum, min, max float64
	n             int
}

// add folds one sample into a.
func (a *aggAccum) add(v float64) { a.merge(aggAccum{sum: v, min: v, max: v, n: 1}) }

// merge folds bucket b's samples into a.
func (a *aggAccum) merge(b aggAccum) {
	if a.n == 0 || b.min < a.min {
		a.min = b.min
	}
	if a.n == 0 || b.max > a.max {
		a.max = b.max
	}
	a.sum += b.sum
	a.n += b.n
}

func (a *aggAccum) value(op AggOp) float64 {
	switch op {
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	case AggSum:
		return a.sum
	default: // AggAvg, AggRate
		return a.sum / float64(a.n)
	}
}

// maxAggBuckets bounds a single QueryAgg's downsampling grid so a tiny
// step over a huge time range cannot exhaust memory.
const maxAggBuckets = 1 << 20

// QueryAgg runs an aggregating range query against the store: the filter
// selects series and the time range, opts select the operator and the
// downsampling step. Matching series are returned in storage order; their
// Points lie back to back in one array, each capacity-clipped.
func QueryAgg(st *MemStore, f Filter, opts AggOptions) ([]AggSeries, error) {
	return QueryAggInto(nil, st, f, opts)
}

// QueryAggInto is QueryAgg appending into dst, so periodic callers (the
// power plane's control loop, dashboard pollers) can reuse one result
// slice across queries instead of reallocating it every tick.
func QueryAggInto(dst []AggSeries, st *MemStore, f Filter, opts AggOptions) ([]AggSeries, error) {
	if st == nil {
		return nil, fmt.Errorf("examon: nil storage")
	}
	switch opts.Op {
	case AggAvg, AggMin, AggMax, AggSum, AggRate:
	case "":
		return nil, fmt.Errorf("examon: aggregation operator required (have avg, min, max, sum, rate)")
	default:
		return nil, fmt.Errorf("examon: unknown aggregation operator %q", opts.Op)
	}
	if math.IsNaN(opts.Step) || math.IsInf(opts.Step, 0) || opts.Step < 0 {
		return nil, fmt.Errorf("examon: bad step %v", opts.Step)
	}
	// A NaN bound passes every comparison below and would turn into a
	// bogus bucket index.
	if math.IsNaN(f.From) || math.IsNaN(f.To) {
		return nil, fmt.Errorf("examon: bad time range [%v,%v)", f.From, f.To)
	}
	if opts.Step > 0 && f.To != 0 && (f.To-f.From)/opts.Step > maxAggBuckets {
		return nil, fmt.Errorf("examon: step %v yields more than %d buckets over [%v,%v)",
			opts.Step, maxAggBuckets, f.From, f.To)
	}
	sp := snapPool.Get().(*[]seriesSnap)
	snaps := st.snapshot((*sp)[:0], f, rollupAligned(f, opts, st.cfg.rollupStep))
	out, err := aggSnapshots(dst, snaps, f, opts, &st.rollupServed)
	clear(snaps) // the pooled slice must not pin views or tier buckets
	*sp = snaps[:0]
	snapPool.Put(sp)
	return out, err
}

// snapPool recycles QueryAggInto's snapshot slices: the power plane and
// dashboard pollers query every tick, and a fresh snapshot each time was
// most of what a monitored run allocated.
var snapPool = sync.Pool{New: func() any { return new([]seriesSnap) }}

// aggSnapshots aggregates a matched-series snapshot in scan order, one
// series at a time through one aggStream, appending to dst. Each series
// answered from a rollup tier bumps rollupServed.
func aggSnapshots(dst []AggSeries, snaps []seriesSnap, f Filter, opts AggOptions, rollupServed *atomic.Uint64) ([]AggSeries, error) {
	out := slices.Grow(dst, len(snaps))
	// One point a series is what a query without a step, and a dashboard
	// panel of one window, returns.
	s := aggStream{f: f, opts: opts, pts: make([]AggPoint, 0, len(snaps))}
	for i := range snaps {
		sn := &snaps[i]
		start := len(s.pts)
		var err error
		if sn.roll.step > 0 {
			err = s.rollup(&sn.roll)
			rollupServed.Add(1)
		} else {
			err = s.view(sn.pts)
		}
		if err != nil {
			return nil, err
		}
		s.flush()
		out = append(out, AggSeries{Tags: sn.tags, Points: s.pts[start:]})
	}
	// The series' points lie back to back in s.pts. Point each series at
	// its part of the final array (an append may have outgrown the one it
	// was sliced from), capacity clipped so that an append to one series
	// cannot overwrite the next; a series with no points keeps nil.
	off := 0
	for i := len(dst); i < len(out); i++ {
		n := len(out[i].Points)
		out[i].Points = nil
		if n > 0 {
			out[i].Points = s.pts[off : off+n : off+n]
		}
		off += n
	}
	if out == nil {
		out = []AggSeries{}
	}
	return out, nil
}

// aggStream folds one query's samples into buckets that arrive in
// ascending order, rendering a bucket when the next one opens, so a query
// holds one open bucket whatever its grid.
type aggStream struct {
	f     Filter
	opts  AggOptions
	pts   []AggPoint // the rendered points of every series so far
	k     int        // the open bucket's index
	acc   aggAccum   // the open bucket
	pairs []bucketSample
}

// bucketSample is a sample paired with its bucket, for sorting the
// samples of a view that is not time-ordered.
type bucketSample struct {
	k int
	v float64
}

// to returns the open bucket after moving to bucket k, rendering the
// open one first when k is another.
func (s *aggStream) to(k int) *aggAccum {
	if k != s.k {
		s.flush()
		s.k = k
	}
	return &s.acc
}

// flush renders the open bucket, if it holds samples, and empties it.
func (s *aggStream) flush() {
	if s.acc.n == 0 {
		return
	}
	t := s.f.From
	if s.opts.Step > 0 {
		t += float64(s.k) * s.opts.Step
	}
	s.pts = append(s.pts, AggPoint{T: t, V: s.acc.value(s.opts.Op), N: s.acc.n})
	s.acc = aggAccum{}
}

// bucket returns the index of the bucket a sample at t falls in, or -1
// when it lies on none: before From, or with a NaN quotient (a NaN time).
func (s *aggStream) bucket(t float64) (int, error) {
	if s.opts.Step <= 0 {
		return 0, nil
	}
	// Compare as float before converting: a quotient beyond the int range
	// would make the conversion implementation-defined and could silently
	// skip the bucket-cap error below.
	q := math.Floor((t - s.f.From) / s.opts.Step)
	if !(q >= 0) {
		return -1, nil
	}
	if q >= maxAggBuckets {
		return -1, fmt.Errorf("examon: step %v yields more than %d buckets (sample at t=%v)",
			s.opts.Step, maxAggBuckets, t)
	}
	return int(q), nil
}

// rollup streams one series' rollup tier instead of its raw points,
// reading the tier's buckets in the query's index range.
// rollupAligned guarantees every raw point in range is covered by whole
// in-range tier buckets, so counts and min/max are identical to the raw
// computation and sums regroup the same additions.
func (s *aggStream) rollup(r *rollupView) error {
	m := int64(s.opts.Step / r.step) // exact: rollupAligned checked divisibility
	q0 := int64(math.Floor(s.f.From / r.step))
	end := r.first + int64(len(r.closed)) + 1
	if s.f.To != 0 {
		end = min(end, int64(math.Floor(s.f.To/r.step)))
	}
	for b := max(q0, r.first); b < end; b++ {
		a := &r.last
		if j := b - r.first; j < int64(len(r.closed)) {
			a = &r.closed[j]
		}
		if a.n == 0 {
			continue
		}
		k := (b - q0) / m
		if k >= maxAggBuckets {
			return fmt.Errorf("examon: step %v yields more than %d buckets (rollup bucket at t=%v)",
				s.opts.Step, maxAggBuckets, float64(b)*r.step)
		}
		s.to(int(k)).merge(*a)
	}
	return nil
}

// view streams one series' raw points. A time-ordered view yields its
// buckets in ascending order; any other first pairs each sample with its
// bucket and stable-sorts the pairs, so every bucket still adds its
// samples in storage order.
func (s *aggStream) view(v PointsView) error {
	rate := s.opts.Op == AggRate
	cur := v.Cursor(s.f.From, s.f.To)
	var prev Point
	if rate {
		// Difference the raw series first: the predecessor of the first
		// in-range point may itself be out of range, so iterate the full
		// view in order and range-filter the resulting rate points.
		cur = v.all()
		prev, _ = cur.Next()
	}
	s.pairs = s.pairs[:0]
	for p, ok := cur.Next(); ok; p, ok = cur.Next() {
		val := p.V
		if rate {
			dt, dv := p.T-prev.T, p.V-prev.V
			prev = p
			if dt <= 0 || p.T < s.f.From || (s.f.To != 0 && p.T >= s.f.To) {
				continue
			}
			val = dv / dt
		}
		k, err := s.bucket(p.T)
		if err != nil {
			return err
		}
		switch {
		case k < 0:
		case v.sorted:
			s.to(k).add(val)
		default:
			s.pairs = append(s.pairs, bucketSample{k, val})
		}
	}
	slices.SortStableFunc(s.pairs, func(a, b bucketSample) int { return cmp.Compare(a.k, b.k) })
	for _, p := range s.pairs {
		s.to(p.k).add(p.v)
	}
	return nil
}
