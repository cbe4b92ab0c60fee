package examon

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file implements the analytics side of the ODA stack: the paper's
// ExaMon deployments target "visualisation and analytics for anomaly
// detection" (Section II), and on Monte Cimone the monitoring data is what
// let the operators pinpoint the node-7 thermal hazard. The detector finds
// absolute-limit violations, statistical outliers against a rolling
// baseline, and runaway trends that predict a limit crossing before it
// happens.

// AnomalyKind classifies a finding.
type AnomalyKind string

// Anomaly kinds.
const (
	// AnomalyLimit is an absolute threshold violation.
	AnomalyLimit AnomalyKind = "limit"
	// AnomalyOutlier is a z-score outlier against the rolling baseline.
	AnomalyOutlier AnomalyKind = "outlier"
	// AnomalyRunaway is a sustained trend predicted to cross the limit.
	AnomalyRunaway AnomalyKind = "runaway"
)

// Anomaly is one detector finding.
type Anomaly struct {
	// Tags identify the series; Kind the finding class.
	Tags Tags
	Kind AnomalyKind
	// Time and Value locate the triggering sample; Score is the z-score
	// (outliers), the predicted seconds to the limit (runaway), or the
	// excess over the limit (limit).
	Time, Value, Score float64
}

// Detector configures the scans.
type Detector struct {
	// Window is the rolling-baseline sample count (default 30).
	Window int
	// ZThreshold flags outliers beyond this many baseline standard
	// deviations (default 6).
	ZThreshold float64
	// Limit is the absolute ceiling (e.g. 107 for cpu_temp); zero
	// disables limit and runaway detection.
	Limit float64
	// RunawayHorizon flags trends predicted to cross Limit within this
	// many seconds (default 300).
	RunawayHorizon float64
	// RunawayFloor suppresses runaway predictions while the value is
	// still far from the limit (warm-up transients on healthy nodes have
	// steep slopes too); default Limit - 20.
	RunawayFloor float64
}

func (d Detector) withDefaults() Detector {
	if d.Window == 0 {
		d.Window = 30
	}
	if d.ZThreshold == 0 {
		d.ZThreshold = 6
	}
	if d.RunawayHorizon == 0 {
		d.RunawayHorizon = 300
	}
	if d.RunawayFloor == 0 && d.Limit > 0 {
		d.RunawayFloor = d.Limit - 20
	}
	return d
}

// Scan inspects one series and returns findings in time order. Each kind
// fires at most once per series (the first triggering sample), matching
// how an alerting pipeline would page.
func (d Detector) Scan(s Series) ([]Anomaly, error) {
	return d.scanView(s.Tags, ViewOf(s.Points))
}

// scanView is the detector core, running directly over a storage view so
// ScanAll never copies series out of the engine.
func (d Detector) scanView(tags Tags, pts PointsView) ([]Anomaly, error) {
	d = d.withDefaults()
	if d.Window < 4 {
		return nil, fmt.Errorf("examon: detector window %d too small", d.Window)
	}
	if d.ZThreshold <= 0 || d.RunawayHorizon <= 0 {
		return nil, fmt.Errorf("examon: thresholds must be positive")
	}
	var out []Anomaly
	fired := make(map[AnomalyKind]bool, 3)
	report := func(kind AnomalyKind, p Point, score float64) {
		if fired[kind] {
			return
		}
		fired[kind] = true
		out = append(out, Anomaly{Tags: tags, Kind: kind, Time: p.T, Value: p.V, Score: score})
	}

	n := pts.Len()
	for i := 0; i < n; i++ {
		p := pts.At(i)
		// Absolute limit.
		if d.Limit > 0 && p.V >= d.Limit {
			report(AnomalyLimit, p, p.V-d.Limit)
		}
		// Rolling-baseline outlier.
		if i >= d.Window {
			mean, std := baseline(pts, i-d.Window, i)
			if std > 0 {
				if z := math.Abs(p.V-mean) / std; z >= d.ZThreshold {
					report(AnomalyOutlier, p, z)
				}
			}
		}
		// Runaway trend: fit a slope over the window and extrapolate,
		// but only once the value is close enough to the limit that a
		// warm-up transient cannot explain it.
		if d.Limit > 0 && i >= d.Window && p.V >= d.RunawayFloor {
			slope := fitSlope(pts, i-d.Window, i+1)
			if slope > 0 {
				remaining := (d.Limit - p.V) / slope
				if remaining >= 0 && remaining <= d.RunawayHorizon && p.V < d.Limit {
					report(AnomalyRunaway, p, remaining)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// ScanAll runs the detector over every series matching the filter, reading
// the points in place from a snapshot of the store. A time-bounded filter
// restricts which samples the detector sees (windows are computed within
// the selected range, as before). The per-series detector runs fan out
// across cores, each chunk with its own scratch buffer; per-series
// findings land in per-series slots and are concatenated in scan order
// before the final time sort, so the output does not depend on the
// fan-out.
func (d Detector) ScanAll(st Storage, f Filter) ([]Anomaly, error) {
	if st == nil {
		return nil, fmt.Errorf("examon: nil storage")
	}
	snaps := st.snapshot(f, false)
	res := make([][]Anomaly, len(snaps))
	var (
		errMu    sync.Mutex
		firstErr error
	)
	parallelFor(len(snaps), func(start, end int) {
		var scratch []Point
		for i := start; i < end; i++ {
			var err error
			res[i], scratch, err = d.scanFiltered(scratch, snaps[i].tags, snaps[i].pts, f)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	var out []Anomaly
	for _, r := range res {
		out = append(out, r...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// scanFiltered runs the detector over one series view, applying the
// filter's time range through a reused scratch copy when needed.
func (d Detector) scanFiltered(scratch []Point, tags Tags, pts PointsView, f Filter) ([]Anomaly, []Point, error) {
	view := pts
	if f.From != 0 || f.To != 0 {
		// Append-grown on purpose: the scratch is reused across series,
		// so growth amortizes to the largest in-range count — sizing it
		// from the full series length would pin full-history capacity for
		// narrow windows.
		scratch = scratch[:0]
		cur := pts.Cursor(f.From, f.To)
		for p, ok := cur.Next(); ok; p, ok = cur.Next() {
			scratch = append(scratch, p)
		}
		view = ViewOf(scratch)
	}
	found, err := d.scanView(tags, view)
	return found, scratch, err
}

// baseline computes mean and population stddev over view indices [lo, hi).
func baseline(pts PointsView, lo, hi int) (mean, std float64) {
	n := float64(hi - lo)
	for i := lo; i < hi; i++ {
		mean += pts.At(i).V
	}
	mean /= n
	for i := lo; i < hi; i++ {
		d := pts.At(i).V - mean
		std += d * d
	}
	return mean, math.Sqrt(std / n)
}

// fitSlope returns the least-squares slope of value over time for view
// indices [lo, hi).
func fitSlope(pts PointsView, lo, hi int) float64 {
	n := float64(hi - lo)
	var st, sv, stt, stv float64
	for i := lo; i < hi; i++ {
		p := pts.At(i)
		st += p.T
		sv += p.V
		stt += p.T * p.T
		stv += p.T * p.V
	}
	den := n*stt - st*st
	if den == 0 {
		return 0
	}
	return (n*stv - st*sv) / den
}
