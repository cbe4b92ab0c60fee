package examon

import (
	"fmt"
	"math"
	"sort"
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
	return d.scanPoints(s.Tags, s.Points)
}

// scanPoints is the detector core.
func (d Detector) scanPoints(tags Tags, pts []Point) ([]Anomaly, error) {
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

	for i, p := range pts {
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
// the points in order from a snapshot of the store. A time-bounded filter
// restricts which samples the detector sees (windows are computed within
// the selected range, as before). Series are decoded in storage order
// into one reused scratch buffer, and the findings are then sorted by
// time.
func (d Detector) ScanAll(st *MemStore, f Filter) ([]Anomaly, error) {
	if st == nil {
		return nil, fmt.Errorf("examon: nil storage")
	}
	from, to := f.From, f.To
	if from == 0 && to == 0 {
		from = math.Inf(-1) // no time filter: every point, negative times included
	}
	var out []Anomaly
	// Append-grown on purpose: the scratch is reused across series, so
	// growth amortizes to the largest in-range count — sizing it from
	// the full series length would pin full-history capacity for narrow
	// windows.
	var scratch []Point
	for _, s := range st.snapshot(nil, f, false) {
		scratch = scratch[:0]
		cur := s.pts.Cursor(from, to)
		for p, ok := cur.Next(); ok; p, ok = cur.Next() {
			scratch = append(scratch, p)
		}
		found, err := d.scanPoints(s.tags, scratch)
		if err != nil {
			return nil, err
		}
		out = append(out, found...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// baseline computes mean and population stddev over pts[lo:hi].
func baseline(pts []Point, lo, hi int) (mean, std float64) {
	n := float64(hi - lo)
	for _, p := range pts[lo:hi] {
		mean += p.V
	}
	mean /= n
	for _, p := range pts[lo:hi] {
		d := p.V - mean
		std += d * d
	}
	return mean, math.Sqrt(std / n)
}

// fitSlope returns the least-squares slope of value over time for
// pts[lo:hi].
func fitSlope(pts []Point, lo, hi int) float64 {
	n := float64(hi - lo)
	var st, sv, stt, stv float64
	for _, p := range pts[lo:hi] {
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
