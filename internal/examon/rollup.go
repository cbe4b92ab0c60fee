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
// A series keeps its tier only while its samples arrive in time order
// (memSeries.sorted). An out-of-order or NaN-time sample, a time beyond
// the tier's index range, or a tier that would span more than
// maxRollupBuckets drops the tier, and the series answers from raw points
// from then on, as the reference store (WithRollup(-1)) always does. So
// only a tier's last bucket ever changes: a snapshot shares the closed
// buckets and copies the last one, and yields them in ascending order.
//
// Exactness contract: on an aligned query (From, To and Step all exact
// multiples of the rollup step) the tier yields the same bucket counts
// and, for min/max, bit-identical values; sums (and therefore averages)
// regroup the same additions, so they are bit-identical whenever the
// additions incur no floating-point rounding (counter/temperature-style
// telemetry) and equal up to reassociation otherwise. NaN values are
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

// rollupView is a tier's buckets, densely from the first sample's bucket
// to the last's: bucket first+i aggregates the samples in
// [(first+i)*step, (first+i+1)*step). Ingest fills only the last bucket
// and never rewrites a closed one, so a snapshot, taken under the store's
// read lock, shares the closed buckets by length and copies the last.
type rollupView struct {
	step   float64 // 0: no tier
	first  int64   // absolute index of the first bucket
	closed []aggAccum
	last   aggAccum
}

// seriesRollup is one series' tier. Guarded by the owning store's lock.
type seriesRollup struct {
	rollupView
	// hi ends the last bucket: an in-order sample below it lands there
	// with one comparison and no division.
	hi float64
}

func newSeriesRollup(step float64) *seriesRollup {
	return &seriesRollup{rollupView: rollupView{step: step}, hi: math.Inf(-1)}
}

// add folds one sample, no earlier than any before it, into the tier. It
// reports false when the tier must be dropped instead.
func (r *seriesRollup) add(t, v float64) bool {
	if t < r.hi {
		r.last.add(v)
		return true
	}
	// Range-check in the float domain before converting: an int64
	// overflow here would wrap the index arithmetic below.
	q := math.Floor(t / r.step)
	if !(math.Abs(q) < maxRollupIdx) {
		return false
	}
	idx := int64(q)
	if r.last.n == 0 { // the first sample: every later one leaves last non-empty
		r.first = idx
	}
	switch gap := idx - r.first - int64(len(r.closed)); {
	case gap < 0 || idx-r.first >= maxRollupBuckets:
		return false
	case gap > 0:
		r.closed = append(r.closed, r.last)
		r.closed = append(r.closed, make([]aggAccum, gap-1)...)
		r.last = aggAccum{}
	}
	r.last.add(v)
	r.hi = float64(idx+1) * r.step
	return true
}

// view takes the tier's snapshot.
func (r *seriesRollup) view() rollupView {
	v := r.rollupView
	v.closed = v.closed[:len(v.closed):len(v.closed)]
	return v
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
