package examon

import "math"

// Ingest-time rollup tiers: MemStore maintains per-series pre-aggregated
// buckets — count/sum/min/max over a coarse step — incrementally on every
// insert, so a coarse-step QueryAgg (avg/min/max/sum) and BuildHeatmap
// answer from the rollup tier without touching raw points. Rate queries
// and steps that do not align with the rollup grid fall through to the
// raw path. The tiers rely on the store never deleting points: min/max
// buckets cannot subtract an evicted sample back out.
//
// Exactness contract: on an aligned query (From, To and Step all exact
// multiples of the rollup step) the tier yields the same bucket counts
// and, for min/max, bit-identical values; sums (and therefore averages)
// regroup the same additions, so they are bit-identical whenever the
// additions incur no floating-point rounding (counter/temperature-style
// telemetry) and equal up to reassociation otherwise. NaN samples are
// outside the contract entirely: IEEE comparisons make even the raw
// fold's min/max depend on insertion order, so no deterministic tier can
// reproduce it — the plugins never emit NaN. The conformance suite pins
// the bit-identical case.

// DefaultRollupStep is the default rollup bucket width in seconds: one
// minute spans 120 samples at pmu_pub's 2 Hz, a two-orders-of-magnitude
// reduction for dashboard-scale aggregation windows.
const DefaultRollupStep = 60.0

// maxRollupBuckets bounds one series' tier. A series whose samples span
// more buckets than this (sparse streams with huge time gaps) drops its
// tier and serves queries from raw points.
const maxRollupBuckets = 1 << 20

// maxRollupIdx bounds the absolute bucket indices the tier and its query
// path work with, comfortably inside int64 so index arithmetic
// (differences, divisions) can never overflow. Timestamps or query
// bounds beyond it drop the tier / fall through to the raw path, whose
// own guards handle pathological ranges.
const maxRollupIdx = 1 << 62

// rollupBucket aggregates the samples of one series whose timestamps fall
// in [idx*step, (idx+1)*step).
type rollupBucket struct {
	n             int
	sum, min, max float64
}

func (b *rollupBucket) add(v float64) {
	if b.n == 0 || v < b.min {
		b.min = v
	}
	if b.n == 0 || v > b.max {
		b.max = v
	}
	b.sum += v
	b.n++
}

// seriesRollup is one series' tier: a dense bucket slice anchored at the
// first bucket index seen. Guarded by the owning engine's lock.
type seriesRollup struct {
	step    float64
	first   int64 // absolute index of buckets[0]
	buckets []rollupBucket
	dropped bool
	// Fast path: the bucket the previous insert landed in, so in-order
	// streams update it with one range check and no division.
	lo, hi float64
	cur    *rollupBucket
}

func newSeriesRollup(step float64) *seriesRollup {
	return &seriesRollup{step: step, lo: math.Inf(1), hi: math.Inf(-1)}
}

// add folds one sample into the tier.
func (r *seriesRollup) add(t, v float64) {
	if r.dropped {
		return
	}
	if t >= r.lo && t < r.hi {
		r.cur.add(v)
		return
	}
	// Range-check in the float domain before converting: an int64
	// overflow here would wrap the growth arithmetic below.
	q := math.Floor(t / r.step)
	if math.IsNaN(q) || q >= maxRollupIdx || q <= -maxRollupIdx {
		r.drop()
		return
	}
	idx := int64(q)
	switch {
	case len(r.buckets) == 0:
		r.first = idx
		r.buckets = append(r.buckets, rollupBucket{})
	case idx < r.first:
		grow := r.first - idx
		if grow+int64(len(r.buckets)) > maxRollupBuckets {
			r.drop()
			return
		}
		nb := make([]rollupBucket, grow+int64(len(r.buckets)))
		copy(nb[grow:], r.buckets)
		r.buckets, r.first = nb, idx
	case idx >= r.first+int64(len(r.buckets)):
		n := idx - r.first + 1
		if n > maxRollupBuckets {
			r.drop()
			return
		}
		r.buckets = append(r.buckets, make([]rollupBucket, n-int64(len(r.buckets)))...)
	}
	b := &r.buckets[idx-r.first]
	b.add(v)
	r.lo = float64(idx) * r.step
	r.hi = float64(idx+1) * r.step
	r.cur = b
}

// drop abandons the tier (the series keeps answering from raw points).
func (r *seriesRollup) drop() {
	r.dropped = true
	r.buckets = nil
	r.cur = nil
	r.lo, r.hi = math.Inf(1), math.Inf(-1)
}

// rollupSnap is a consistent copy of the tier's buckets overlapping a
// query range, taken under the engine's lock so readers never see a
// bucket mid-update.
type rollupSnap struct {
	step    float64
	first   int64 // absolute index of buckets[0]
	buckets []rollupBucket
}

// snapshotRange copies the buckets overlapping [from, to) (to == 0 means
// unbounded). Returns nil when the tier was dropped.
func (r *seriesRollup) snapshotRange(from, to float64) *rollupSnap {
	if r == nil || r.dropped {
		return nil
	}
	// Clamp in the float domain so extreme bounds cannot overflow the
	// index conversions (rollupAligned already rejects such queries;
	// this keeps the method safe standalone).
	lo, hi := int64(0), int64(len(r.buckets))
	if fq := math.Floor(from / r.step); fq > float64(r.first) {
		if fq >= float64(r.first)+float64(hi) {
			lo = hi
		} else {
			lo = int64(fq) - r.first
		}
	}
	if to != 0 {
		if tq := math.Ceil(to / r.step); tq-float64(r.first) < float64(hi) {
			if tq <= float64(r.first)+float64(lo) {
				hi = lo
			} else {
				hi = int64(tq) - r.first
			}
		}
	}
	return &rollupSnap{
		step:    r.step,
		first:   r.first + lo,
		buckets: append([]rollupBucket(nil), r.buckets[lo:hi]...),
	}
}

// rollupAligned reports whether a QueryAgg can be answered from a rollup
// tier of the given step: a non-rate operator, and From, To and Step all
// sitting exactly on the rollup grid so every raw point is covered by
// whole in-range buckets.
func rollupAligned(f Filter, opts AggOptions, step float64) bool {
	if step <= 0 || opts.Step < step || opts.Op == AggRate {
		return false
	}
	if math.Mod(opts.Step, step) != 0 || math.Mod(f.From, step) != 0 {
		return false
	}
	if f.To != 0 && math.Mod(f.To, step) != 0 {
		return false
	}
	// Grids whose bucket indices would overflow int64 fall through to the
	// raw path, which guards this range class itself.
	if math.Abs(f.From/step) >= maxRollupIdx || opts.Step/step >= maxRollupIdx {
		return false
	}
	return f.To == 0 || math.Abs(f.To/step) < maxRollupIdx
}
