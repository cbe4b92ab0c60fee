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

// TSDB is the storage frontend installed on the master node. It subscribes
// to the broker's data topics and answers range queries (the paper's stack
// exposes these through Grafana and a REST API). The actual persistence is
// delegated to a MemStore — NewTSDB builds a default one, NewTSDBOn wraps
// one the caller built — and TSDB itself implements Storage by delegation,
// so the query layers (QueryAgg, BuildHeatmap, Detector.ScanAll,
// RESTServer) accept either a TSDB or a bare store and keep the store's
// fast read paths (inverted index, snapshot fan-out, rollup tiers). Safe
// for concurrent use.
type TSDB struct {
	store Storage
}

// NewTSDB returns a store backed by a default MemStore.
func NewTSDB() *TSDB {
	return &TSDB{store: NewMemStore()}
}

// NewTSDBOn returns a store backed by the given one.
func NewTSDBOn(store Storage) (*TSDB, error) {
	if store == nil {
		return nil, fmt.Errorf("examon: tsdb needs a storage engine")
	}
	return &TSDB{store: store}, nil
}

// Attach subscribes the store to every ExaMon data topic on the broker
// through the typed sample path: batches published with PublishBatch land
// in storage without any string rendering or parsing, and legacy string
// publishes arrive through the broker's compatibility shim.
func (db *TSDB) Attach(broker *Broker) (*Subscription, error) {
	if broker == nil {
		return nil, fmt.Errorf("examon: tsdb needs a broker")
	}
	return broker.SubscribeSampleBatches("org/#", func(batch []Sample) {
		db.store.InsertBatch(batch)
	})
}

// Insert stores one sample.
func (db *TSDB) Insert(tags Tags, t, v float64) { db.store.Insert(tags, t, v) }

// InsertBatch stores a batch of samples.
func (db *TSDB) InsertBatch(batch []Sample) { db.store.InsertBatch(batch) }

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

// Query returns copies of the matching series, filtered to the time range,
// ordered by first insertion.
func (db *TSDB) Query(f Filter) []Series { return db.store.Query(f) }

// Scan visits the matching series without copying; see Storage.Scan for
// the contract.
func (db *TSDB) Scan(f Filter, visit func(tags Tags, pts PointsView) bool) {
	db.store.Scan(f, visit)
}

// SeriesCount returns the number of stored series.
func (db *TSDB) SeriesCount() int { return db.store.SeriesCount() }

// Keys lists all series keys, sorted.
func (db *TSDB) Keys() []string { return db.store.Keys() }

func (db *TSDB) snapshot(f Filter, withRollups bool) []seriesSnap {
	return db.store.snapshot(f, withRollups)
}

func (db *TSDB) rollupStep() float64 { return db.store.rollupStep() }

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
