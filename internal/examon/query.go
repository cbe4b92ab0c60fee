package examon

import (
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

// aggAccum is one bucket under construction.
type aggAccum struct {
	sum, min, max float64
	n             int
}

func (a *aggAccum) add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.sum += v
	a.n++
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
// downsampling step. Matching series are returned in storage order.
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
	snaps := st.snapshot((*sp)[:0], f, rollupAligned(f, opts, st.rollupStep()))
	out, err := aggSnapshots(dst, snaps, f, opts, &st.rollupServed)
	clear(snaps) // the pooled slice must not pin views or rollup copies
	*sp = snaps[:0]
	snapPool.Put(sp)
	return out, err
}

// snapPool recycles QueryAggInto's snapshot slices: the power plane and
// dashboard pollers query every tick, and a fresh snapshot each time was
// most of what a monitored run allocated.
var snapPool = sync.Pool{New: func() any { return new([]seriesSnap) }}

// aggSnapshots aggregates a matched-series snapshot in scan order, one
// series at a time through one reused bucket slice, appending to dst.
// Each series answered from a rollup tier bumps rollupServed.
func aggSnapshots(dst []AggSeries, snaps []seriesSnap, f Filter, opts AggOptions, rollupServed *atomic.Uint64) ([]AggSeries, error) {
	out := slices.Grow(dst, len(snaps))
	var buckets []aggAccum
	for _, s := range snaps {
		buckets = buckets[:0] // both fillers grow it by appending zeroed buckets
		var err error
		if s.roll != nil {
			buckets, err = aggregateRollup(buckets, s.roll, f, opts)
			rollupServed.Add(1)
		} else {
			buckets, err = aggregateView(buckets, s.pts, f, opts)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, AggSeries{Tags: s.tags, Points: bucketPoints(buckets, f, opts)})
	}
	if out == nil {
		out = []AggSeries{}
	}
	return out, nil
}

// bucketPoints renders populated buckets as AggPoints, sized exactly from
// the populated-bucket count. A series with no populated buckets keeps
// nil Points (matching the append-grown behavior).
func bucketPoints(buckets []aggAccum, f Filter, opts AggOptions) []AggPoint {
	populated := 0
	for k := range buckets {
		if buckets[k].n > 0 {
			populated++
		}
	}
	if populated == 0 {
		return nil
	}
	pts := make([]AggPoint, 0, populated)
	for k := range buckets {
		if buckets[k].n == 0 {
			continue
		}
		t := f.From
		if opts.Step > 0 {
			t += float64(k) * opts.Step
		}
		pts = append(pts, AggPoint{T: t, V: buckets[k].value(opts.Op), N: buckets[k].n})
	}
	return pts
}

// aggregateRollup fills buckets from one series' rollup tier instead of
// its raw points. rollupAligned guarantees every raw point in range is
// covered by whole in-range rollup buckets, so counts and min/max are
// identical to the raw computation and sums regroup the same additions.
func aggregateRollup(buckets []aggAccum, roll *rollupSnap, f Filter, opts AggOptions) ([]aggAccum, error) {
	m := int64(opts.Step / roll.step) // exact: rollupAligned checked divisibility
	q0 := int64(math.Floor(f.From / roll.step))
	qEnd := int64(math.MaxInt64)
	if f.To != 0 {
		qEnd = int64(math.Floor(f.To / roll.step))
	}
	for j := range roll.buckets {
		rb := &roll.buckets[j]
		if rb.n == 0 {
			continue
		}
		b := roll.first + int64(j)
		if b < q0 || b >= qEnd {
			continue
		}
		k64 := (b - q0) / m
		if k64 >= maxAggBuckets {
			return buckets, fmt.Errorf("examon: step %v yields more than %d buckets (rollup bucket at t=%v)",
				opts.Step, maxAggBuckets, float64(b)*roll.step)
		}
		k := int(k64)
		if k >= len(buckets) {
			buckets = append(buckets, make([]aggAccum, k+1-len(buckets))...)
		}
		a := &buckets[k]
		if a.n == 0 || rb.min < a.min {
			a.min = rb.min
		}
		if a.n == 0 || rb.max > a.max {
			a.max = rb.max
		}
		a.sum += rb.sum
		a.n += rb.n
	}
	return buckets, nil
}

// aggregateView fills buckets from one series view, growing the bucket
// slice as needed, and returns it.
func aggregateView(buckets []aggAccum, pts PointsView, f Filter, opts AggOptions) ([]aggAccum, error) {
	var err error
	add := func(t, v float64) {
		k := 0
		if opts.Step > 0 {
			// Compare as float before converting: a quotient beyond the
			// int range would make the conversion implementation-defined
			// and could silently skip the bucket-cap error below.
			q := math.Floor((t - f.From) / opts.Step)
			if q < 0 {
				return
			}
			if q >= maxAggBuckets {
				err = fmt.Errorf("examon: step %v yields more than %d buckets (sample at t=%v)",
					opts.Step, maxAggBuckets, t)
				return
			}
			k = int(q)
		}
		if k >= len(buckets) {
			buckets = append(buckets, make([]aggAccum, k+1-len(buckets))...)
		}
		buckets[k].add(v)
	}
	if opts.Op == AggRate {
		// Difference the raw series first: the predecessor of the first
		// in-range point may itself be out of range, so iterate the full
		// view in order and range-filter the resulting rate points.
		cur := pts.all()
		prev, _ := cur.Next()
		for p, ok := cur.Next(); ok && err == nil; p, ok = cur.Next() {
			dt, dv := p.T-prev.T, p.V-prev.V
			prev = p
			if dt <= 0 || p.T < f.From || (f.To != 0 && p.T >= f.To) {
				continue
			}
			add(p.T, dv/dt)
		}
		return buckets, err
	}
	cur := pts.Cursor(f.From, f.To)
	for p, ok := cur.Next(); ok && err == nil; p, ok = cur.Next() {
		add(p.T, p.V)
	}
	return buckets, err
}
