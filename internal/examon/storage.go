package examon

import (
	"runtime"
	"sort"
	"sync"
)

// Storage is the persistence interface behind TSDB. MemStore is the one
// engine; TSDB implements Storage by delegating to its engine, so the
// query layers (QueryAgg, BuildHeatmap, Detector.ScanAll, RESTServer)
// accept either.
//
// MemStore maintains an inverted tag index (index.go) so selective reads
// visit only candidate series, and ingest-time rollup tiers (rollup.go)
// that answer aligned coarse-step aggregations without touching raw
// points. WithLinearScan and WithRollup build the reference store the
// read-path equivalence tests and BenchmarkQueryServe compare against.
//
// Contract (exercised by the conformance suite in
// storage_conformance_test.go):
//
//   - Insert/InsertBatch append points in arrival order. Series identity
//     is (Node, Plugin, Core, Metric) — the dimensions seriesKey renders
//     and Filter selects on; samples differing only in Org/Cluster extend
//     the same series, which keeps its first-seen full tag set (seed
//     semantics).
//   - Query returns deep copies of the matching series, time-filtered per
//     Filter, ordered by each series' first insertion.
//   - Scan visits matching series in the same order, passing a PointsView
//     over the stored points with NO time filtering (callers apply
//     Filter.From/To via PointsView.Cursor; aggregators like rate need
//     the out-of-range predecessor point). The views are a point-in-time
//     snapshot taken before the first visit, and no lock is held while
//     visiting. Returning false stops the scan.
//   - SeriesCount and Keys report the stored series; Keys is sorted.
//
// All methods are safe for concurrent use.
type Storage interface {
	// Insert stores one sample.
	Insert(tags Tags, t, v float64)
	// InsertBatch stores a batch of samples.
	InsertBatch(batch []Sample)
	// Query returns copies of the matching series, filtered to the time
	// range, ordered by first insertion.
	Query(f Filter) []Series
	// Scan visits each matching series' full point view; see the
	// interface comment for the contract.
	Scan(f Filter, visit func(tags Tags, pts PointsView) bool)
	// SeriesCount returns the number of stored series.
	SeriesCount() int
	// Keys lists all series keys, sorted.
	Keys() []string

	// snapshot captures the matching series in creation order as views
	// that stay valid after the store's lock is released; withRollups
	// also copies each series' rollup buckets overlapping the filter's
	// time range. The read layers aggregate and render from it without
	// holding any lock.
	snapshot(f Filter, withRollups bool) []seriesSnap
	// rollupStep is the rollup bucket width in seconds (<= 0: no tiers).
	rollupStep() float64
}

// seriesID is the identity a stream is stored under: the dimensions that
// seriesKey renders and Filter can select on. Org and Cluster are scoping
// metadata, not identity — samples differing only there extend the same
// series (which keeps the first-seen full tag set), exactly like the seed
// string-keyed store.
type seriesID struct {
	node   string
	plugin string
	core   int
	metric string
}

func idOf(t Tags) seriesID {
	return seriesID{node: t.Node, plugin: t.Plugin, core: t.Core, metric: t.Metric}
}

// storeConfig carries the store's tunables.
type storeConfig struct {
	linear     bool
	rollupStep float64 // <= 0 disables the rollup tier
}

// StoreOption tunes a store at construction.
type StoreOption func(*storeConfig)

// WithLinearScan makes every read walk all series instead of selecting
// candidates through the inverted tag index. Together with WithRollup(-1)
// it builds the reference store that the read-path tests and
// BenchmarkQueryServe compare the default store against.
func WithLinearScan(linear bool) StoreOption {
	return func(c *storeConfig) { c.linear = linear }
}

// WithRollup sets the ingest-time rollup tier's bucket width in seconds;
// step <= 0 disables the tiers, so every aggregation reads raw points.
// The default is DefaultRollupStep.
func WithRollup(step float64) StoreOption {
	return func(c *storeConfig) { c.rollupStep = step }
}

// --- read fan-out --------------------------------------------------------

// seriesSnap is one matched series captured as a stable view that remains
// valid after the store's lock is released: the slice header is copied
// under the read lock (the prefix it describes is immutable), and the
// rollup tier — which ingest mutates in place — is copied for the query's
// range.
type seriesSnap struct {
	tags Tags
	pts  PointsView
	roll *rollupSnap // non-nil only when requested and maintained
}

// Read fan-out sizing: below minParallelSeries the goroutine handoff
// costs more than the aggregation; maxReadWorkers caps one query's share
// of the host.
const (
	minParallelSeries = 8
	maxReadWorkers    = 16
)

// parallelFor splits [0, n) into contiguous chunks across up to
// maxReadWorkers goroutines and runs body on each chunk; small inputs run
// inline. body must be safe for concurrent use.
func parallelFor(n int, body func(start, end int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > maxReadWorkers {
		workers = maxReadWorkers
	}
	if n < minParallelSeries || workers <= 1 {
		body(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			body(s, e)
		}(start, end)
	}
	wg.Wait()
}

// --- MemStore -----------------------------------------------------------

// memSeries is one append-only stream.
type memSeries struct {
	tags Tags
	pts  []Point
	roll *seriesRollup // nil when rollups are disabled
}

// MemStore is the in-memory append store (the seed TSDB's storage,
// extracted behind the Storage interface). Every write takes the store's
// lock, so any number of publishers may ingest concurrently; reads copy
// slice headers under the read lock and then run lock-free.
type MemStore struct {
	cfg    storeConfig
	mu     sync.RWMutex
	series map[seriesID]*memSeries
	order  []*memSeries
	index  *tagIndex
}

// NewMemStore returns an empty append store.
func NewMemStore(opts ...StoreOption) *MemStore {
	cfg := storeConfig{rollupStep: DefaultRollupStep}
	for _, o := range opts {
		o(&cfg)
	}
	return &MemStore{
		cfg:    cfg,
		series: make(map[seriesID]*memSeries),
		index:  newTagIndex(),
	}
}

// Insert stores one sample.
func (st *MemStore) Insert(tags Tags, t, v float64) {
	st.mu.Lock()
	st.insertLocked(tags, t, v)
	st.mu.Unlock()
}

// InsertBatch stores a batch under a single lock acquisition.
func (st *MemStore) InsertBatch(batch []Sample) {
	if len(batch) == 0 {
		return
	}
	st.mu.Lock()
	for _, s := range batch {
		st.insertLocked(s.Tags, s.T, s.V)
	}
	st.mu.Unlock()
}

func (st *MemStore) insertLocked(tags Tags, t, v float64) {
	id := idOf(tags)
	s, ok := st.series[id]
	if !ok {
		s = &memSeries{tags: tags}
		if st.cfg.rollupStep > 0 {
			s.roll = newSeriesRollup(st.cfg.rollupStep)
		}
		st.index.add(len(st.order), tags)
		st.series[id] = s
		st.order = append(st.order, s)
	}
	s.pts = append(s.pts, Point{T: t, V: v})
	if s.roll != nil {
		s.roll.add(t, v)
	}
}

// Query returns copies of the matching series. A series with no in-range
// points keeps nil Points (seed semantics).
func (st *MemStore) Query(f Filter) []Series {
	var out []Series
	for _, s := range st.snapshot(f, false) {
		cp := Series{Tags: s.tags}
		if n := s.pts.Len(); n > 0 {
			// Always filter through the cursor — even a zero From excludes
			// negative timestamps (seed semantics) — with the copy sized
			// up front from the view length. Time-windowed queries cap the
			// hint: a narrow window over a long series must not retain a
			// full-series-sized backing array for a handful of points.
			if (f.From != 0 || f.To != 0) && n > 1024 {
				n = 1024
			}
			buf := make([]Point, 0, n)
			cur := s.pts.Cursor(f.From, f.To)
			for p, ok := cur.Next(); ok; p, ok = cur.Next() {
				buf = append(buf, p)
			}
			if len(buf) > 0 {
				cp.Points = buf
			}
		}
		out = append(out, cp)
	}
	return out
}

// Scan visits matching series over a point-in-time snapshot.
func (st *MemStore) Scan(f Filter, visit func(tags Tags, pts PointsView) bool) {
	for _, s := range st.snapshot(f, false) {
		if !visit(s.tags, s.pts) {
			return
		}
	}
}

// snapshot selects the matching series through the inverted index, or by
// walking every series in the linear-scan store and for filters with no
// indexed dimension. The store is append-only, so a slice header copied
// under the read lock describes an immutable prefix and stays valid after
// the lock is released.
func (st *MemStore) snapshot(f Filter, withRollups bool) []seriesSnap {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var snaps []seriesSnap
	add := func(s *memSeries) {
		if !f.matches(s.tags) {
			return
		}
		snap := seriesSnap{tags: s.tags, pts: ViewOf(s.pts)}
		if withRollups {
			snap.roll = s.roll.snapshotRange(f.From, f.To)
		}
		snaps = append(snaps, snap)
	}
	if cand, ok := st.index.candidates(f); ok && !st.cfg.linear {
		for _, pos := range cand {
			add(st.order[pos])
		}
	} else {
		for _, s := range st.order {
			add(s)
		}
	}
	return snaps
}

func (st *MemStore) rollupStep() float64 { return st.cfg.rollupStep }

// SeriesCount returns the number of stored series.
func (st *MemStore) SeriesCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.series)
}

// Keys lists all series keys, sorted.
func (st *MemStore) Keys() []string {
	st.mu.RLock()
	out := make([]string, 0, len(st.order))
	for _, s := range st.order {
		out = append(out, seriesKey(s.tags))
	}
	st.mu.RUnlock()
	sort.Strings(out)
	return out
}
