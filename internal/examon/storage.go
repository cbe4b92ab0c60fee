package examon

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

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

// --- snapshot reads -------------------------------------------------------

// seriesSnap is one matched series captured as a stable view that remains
// valid after the store's lock is released: the points view is taken
// under the read lock (the points it describes are never rewritten), and
// the rollup tier — which ingest mutates in place — is copied for the
// query's range. A series answered from its tier gets no points view.
type seriesSnap struct {
	tags Tags
	pts  PointsView
	roll *rollupSnap // non-nil only when requested and maintained
}

// --- MemStore -----------------------------------------------------------

// memSeries is one append-only stream: a chain of sealed, encoded chunks
// (chunk.go) followed by a raw open chunk that takes appends. The fields
// an append touches come first.
type memSeries struct {
	tags Tags
	// open holds the points not yet sealed. The first open chunk grows by
	// append; at chunkCap points it is sealed, and its buffer is reused
	// unless a view holds it, when a fresh one is carved from the store's
	// point slab instead.
	open []Point
	roll *seriesRollup // nil when rollups are disabled
	// sorted records that the timestamps have never decreased and hold no
	// NaN, so a view of the series may seek. Once an insert breaks the
	// order it stays false.
	sorted bool
	// viewed records that a snapshot has taken a view of the open chunk,
	// so its buffer must not be reused. Snapshots set it under the read
	// lock, concurrently with each other; the seal reads and clears it
	// under the write lock.
	viewed     atomic.Bool
	head, tail *sealedChunk
	nsealed    int
}

// append stores one point, keeping the order flag and the rollup tier.
// A full open chunk is sealed first.
func (s *memSeries) append(a *chunkArena, t, v float64) {
	if len(s.open) == chunkCap {
		s.seal(a)
	}
	if s.sorted && (math.IsNaN(t) || t < s.lastT()) {
		s.sorted = false
	}
	s.open = append(s.open, Point{T: t, V: v})
	if s.roll != nil {
		s.roll.add(t, v)
	}
}

// lastT is the timestamp of the last stored point, -Inf when none is.
func (s *memSeries) lastT() float64 {
	if n := len(s.open); n > 0 {
		return s.open[n-1].T
	}
	if s.tail != nil {
		return s.tail.lastT
	}
	return math.Inf(-1)
}

// seal encodes the full open chunk, links it after the sealed chain and
// empties the open chunk.
func (s *memSeries) seal(a *chunkArena) {
	c := a.seal(s.open)
	if s.tail == nil {
		s.head = c
	} else {
		s.tail.next = c
	}
	s.tail = c
	s.nsealed++
	if s.viewed.Load() {
		s.open = a.points.carve(chunkCap)[:0]
		s.viewed.Store(false)
	} else {
		s.open = s.open[:0]
	}
}

// view returns a view of the stored points. The caller holds the read
// lock.
func (s *memSeries) view() PointsView {
	if len(s.open) > 0 && !s.viewed.Load() {
		s.viewed.Store(true)
	}
	return PointsView{head: s.head, nsealed: s.nsealed, open: s.open, sorted: s.sorted}
}

// MemStore is the in-memory append store on the master node: the broker
// feeds it (Attach), and every read layer (Query, QueryAgg, BuildHeatmap,
// Detector.ScanAll, RESTServer) answers from it. It maintains an inverted
// tag index (index.go) so selective reads visit only candidate series,
// and ingest-time rollup tiers (rollup.go) that answer aligned
// coarse-step aggregations without touching raw points. Each series keeps
// its points as sealed chunks of chunkCap points, encoded losslessly at
// about 1.5 to 2 bytes a point, plus a raw open chunk (chunk.go); the
// encoded bytes, chunk headers and re-issued open chunks are carved from
// store-wide slabs, so a seal allocates nothing per series. WithLinearScan
// and WithRollup build the reference store the read-path equivalence
// tests and BenchmarkQueryServe compare against; it stores the same
// chunks.
//
// Contract (exercised by the conformance suite in
// storage_conformance_test.go):
//
//   - Insert, InsertBatch and handle publishes (Broker.Publish) append
//     points in arrival order through one insert path. Series identity
//     is (Node, Plugin, Core, Metric) — the dimensions seriesKey renders
//     and Filter selects on; samples differing only in Org/Cluster extend
//     the same series, which keeps its first-seen full tag set (seed
//     semantics).
//   - Query returns deep copies of the matching series, time-filtered per
//     Filter, ordered by each series' first insertion.
//   - The read layers scan a snapshot of the matching series in the same
//     order, each a PointsView over the stored points with NO time
//     filtering (they apply Filter.From/To via PointsView.Cursor, which
//     decodes as it goes; aggregators like rate need the out-of-range
//     predecessor point). The snapshot is taken under the read lock, and
//     no lock is held while it is scanned on the calling goroutine. A
//     view of a series whose timestamps have so far never decreased and
//     hold no NaN lets Cursor seek.
//   - Storage is lossless: every stored float64, NaN payloads and −0
//     included, reads back bit for bit.
//   - SeriesCount and Keys report the stored series; Keys is sorted.
//
// Every write takes the store's lock, so any number of publishers may
// ingest concurrently; reads take their views under the read lock and
// then run lock-free, so readers on several goroutines proceed side by
// side. A view stays valid because nothing it holds is rewritten: sealed
// chunks never change, and a seal reuses the open chunk's buffer only
// when no view has been taken of it. A read starts no goroutines of its own. All methods are safe for
// concurrent use.
type MemStore struct {
	cfg    storeConfig
	mu     sync.RWMutex
	series map[seriesID]*memSeries
	order  []*memSeries
	index  *tagIndex
	arena  chunkArena // guarded by mu
	// rollupServed counts series QueryAgg answered from rollup tiers
	// instead of raw points.
	rollupServed atomic.Uint64
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
		arena:  newChunkArena(),
	}
}

// Insert stores one sample.
func (st *MemStore) Insert(tags Tags, t, v float64) {
	st.mu.Lock()
	st.seriesLocked(tags).append(&st.arena, t, v)
	st.mu.Unlock()
}

// InsertBatch stores a batch under a single lock acquisition.
func (st *MemStore) InsertBatch(batch []Sample) {
	if len(batch) == 0 {
		return
	}
	st.mu.Lock()
	for i := range batch {
		st.seriesLocked(batch[i].Tags).append(&st.arena, batch[i].T, batch[i].V)
	}
	st.mu.Unlock()
}

// insertHandles stores one value per handle, all at time t, under a single
// lock acquisition. A handle resolves its series here on its first insert
// and keeps it: the broker feeds one store for good, so the series never
// changes, and the store's lock guards the handle's field.
func (st *MemStore) insertHandles(t float64, hs []*SeriesHandle, vs []float64) {
	st.mu.Lock()
	for i, h := range hs {
		if h.series == nil {
			h.series = st.seriesLocked(h.tags)
		}
		h.series.append(&st.arena, t, vs[i])
	}
	st.mu.Unlock()
}

// seriesLocked returns the series stored under tags' identity, creating
// and indexing it on first sight. The caller holds the write lock.
func (st *MemStore) seriesLocked(tags Tags) *memSeries {
	id := idOf(tags)
	s, ok := st.series[id]
	if !ok {
		s = &memSeries{tags: tags, sorted: true}
		if st.cfg.rollupStep > 0 {
			s.roll = newSeriesRollup(st.cfg.rollupStep)
		}
		st.index.add(len(st.order), tags)
		st.series[id] = s
		st.order = append(st.order, s)
	}
	return s
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

// snapshot captures the matching series in creation order as views that
// stay valid after the lock is released; withRollups also copies each
// series' rollup buckets overlapping the filter's time range. It selects
// through the inverted index, or by walking every series in the
// linear-scan store and for filters with no indexed dimension. The store
// never rewrites a point a view holds, so the views stay valid after the
// lock is released.
func (st *MemStore) snapshot(f Filter, withRollups bool) []seriesSnap {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var snaps []seriesSnap
	add := func(s *memSeries) {
		if !f.matches(s.tags) {
			return
		}
		snap := seriesSnap{tags: s.tags}
		if withRollups {
			snap.roll = s.roll.snapshotRange(f.From, f.To)
		}
		if snap.roll == nil {
			snap.pts = s.view()
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

// rollupStep is the rollup bucket width in seconds (<= 0: no tiers).
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
