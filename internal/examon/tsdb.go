package examon

import "fmt"

// Point is one stored sample.
type Point struct {
	// T is the sample's virtual timestamp (seconds); V the value.
	T, V float64
}

// Series is one stored metric stream with its identifying tags.
type Series struct {
	// Tags identify the stream.
	Tags Tags
	// Points are the samples in arrival order.
	Points []Point
}

// Key renders the canonical series key.
func (s *Series) Key() string { return seriesKey(s.Tags) }

func seriesKey(t Tags) string {
	if t.Core >= 0 {
		return fmt.Sprintf("%s/%s/core%d/%s", t.Node, t.Plugin, t.Core, t.Metric)
	}
	return fmt.Sprintf("%s/%s/%s", t.Node, t.Plugin, t.Metric)
}

// NewTSDBOn returns store, or an error when it is nil.
//
// Deprecated: attach the store to its broker with MemStore.Attach and
// query it directly; NewTSDBOn remains only for existing callers.
func NewTSDBOn(store *MemStore) (*MemStore, error) {
	if store == nil {
		return nil, fmt.Errorf("examon: tsdb needs a storage engine")
	}
	return store, nil
}

// Filter selects series for a query; zero fields match everything.
type Filter struct {
	// Org and Cluster match the series' scoping tags exactly when
	// non-empty. Scoping tags are not part of series identity — a series
	// keeps its first-seen Org/Cluster — so these dimensions matter for
	// federated stores where samples from several clusters land in one
	// engine under distinct node names (the fleet runner's federation
	// tier): a Cluster filter then selects exactly one cluster's series.
	Org     string
	Cluster string
	// Node, Plugin and Metric match tag values exactly when non-empty.
	Node   string
	Plugin string
	Metric string
	// Core matches the hart id; nil matches any.
	Core *int
	// From and To bound timestamps (inclusive from, exclusive to). A zero
	// To means unbounded, which makes "everything up to and including
	// t=0" inexpressible as an exclusive bound: a query for exactly the
	// t=0 samples needs To set to the smallest time above zero the caller
	// cares about (e.g. math.SmallestNonzeroFloat64), since To=0 returns
	// the full series instead. Virtual time in this stack starts at 0 and
	// samples are published at t>0, so the ambiguity is harmless in
	// practice, but generic callers should be aware of it.
	From, To float64
}

func (f Filter) matches(t Tags) bool {
	if f.Org != "" && f.Org != t.Org {
		return false
	}
	if f.Cluster != "" && f.Cluster != t.Cluster {
		return false
	}
	if f.Node != "" && f.Node != t.Node {
		return false
	}
	if f.Plugin != "" && f.Plugin != t.Plugin {
		return false
	}
	if f.Metric != "" && f.Metric != t.Metric {
		return false
	}
	if f.Core != nil && *f.Core != t.Core {
		return false
	}
	return true
}

// Rate converts a cumulative-counter series into a rate series by
// differencing successive points (the Fig. 5 instruction/s heatmap is
// built from the cumulative INSTRET counter this way). Pairs with
// non-positive time deltas are skipped, and a series with fewer than two
// points — where no difference exists — yields an empty rate series rather
// than an error, so callers must not assume len(out.Points) > 0.
func Rate(s Series) Series {
	out := Series{Tags: s.Tags}
	for i := 1; i < len(s.Points); i++ {
		dt := s.Points[i].T - s.Points[i-1].T
		if dt <= 0 {
			continue
		}
		dv := s.Points[i].V - s.Points[i-1].V
		out.Points = append(out.Points, Point{T: s.Points[i].T, V: dv / dt})
	}
	return out
}
