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
// valid after the store's lock is released: the points view and the
// rollup tier's view are taken under the read lock, and ingest never
// rewrites what either holds. A series answered from its tier gets no
// points view.
type seriesSnap struct {
	tags Tags
	pts  PointsView
	roll rollupView // roll.step > 0 only when requested and the series keeps a tier
}

// --- MemStore -----------------------------------------------------------

// ringLen is the number of latest points a series also keeps raw.
const ringLen = 4

// memSeries is one append-only stream: a chain of sealed, encoded chunks
// (chunk.go) followed by the open chunk, which encodes each point as it
// arrives, and the last ringLen points kept raw. The fields an append
// touches come first.
type memSeries struct {
	tags Tags
	// open encodes the points not yet sealed. Its whole words sit in a
	// heap buffer that appends only extend; at chunkCap points a seal
	// copies the chunk into the store's byte slab and starts a fresh
	// buffer, so a view's prefix of the old one is never rewritten.
	open chunkEncoder
	// recent holds the last ringLen points raw: point i of the series at
	// i % ringLen.
	recent [ringLen]Point
	// roll is nil when rollups are disabled or the series dropped its
	// tier.
	roll *seriesRollup
	// sorted records that the timestamps have never decreased and hold no
	// NaN, so a view of the series may seek and the series may keep its
	// rollup tier. Once an insert breaks the order it stays false.
	sorted     bool
	head, tail *sealedChunk
	nsealed    int
}

// len is the number of stored points.
func (s *memSeries) len() int { return s.nsealed*chunkCap + s.open.n }

// append stores one point, keeping the order flag and the rollup tier,
// which it drops once the order breaks or the tier cannot take the point.
// A full open chunk is sealed first.
func (s *memSeries) append(a *chunkArena, t, v float64) {
	if s.open.n == chunkCap {
		s.seal(a)
	}
	n := s.len()
	if s.sorted && (math.IsNaN(t) || n > 0 && t < s.recent[(n-1)%ringLen].T) {
		s.sorted = false
	}
	s.open.add(t, v)
	s.recent[n%ringLen] = Point{T: t, V: v}
	if s.roll != nil && !(s.sorted && s.roll.add(t, v)) {
		s.roll = nil
	}
}

// seal copies the full open chunk into the byte slab, links it after the
// sealed chain and starts the next open chunk in a fresh buffer sized
// like this chunk: a view may still hold the old one.
func (s *memSeries) seal(a *chunkArena) {
	c := a.seal(&s.open)
	if s.tail == nil {
		s.head = c
	} else {
		s.tail.next = c
	}
	s.tail = c
	s.nsealed++
	s.open = chunkEncoder{w: bitWriter{b: make([]byte, 0, (len(c.data)+7)&^7)}}
}

// view returns a view of the stored points. The caller holds the read
// lock.
func (s *memSeries) view() PointsView {
	v := PointsView{head: s.head, nsealed: s.nsealed, open: s.open.w, openT: s.open.firstT,
		nopen: s.open.n, sorted: s.sorted}
	n := s.len()
	first := max(n-ringLen, 0)
	for i := first; i < n; i++ {
		v.recent[i-first] = s.recent[i%ringLen]
	}
	return v
}

// MemStore is the in-memory append store on the master node: the broker
// feeds it (Attach), and every read layer (Query, QueryAgg, BuildHeatmap,
// Detector.ScanAll, RESTServer) answers from it. It maintains an inverted
// tag index (index.go) so selective reads visit only candidate series,
// and ingest-time rollup tiers (rollup.go) that answer aligned
// coarse-step aggregations without touching raw points, kept while a
// series' samples arrive in time order. Each series
// encodes its points losslessly as they arrive, at about 1.5 to 2 bytes a
// point, into chunks of chunkCap points (chunk.go), and keeps only its
// last ringLen points raw. Sealed chunks and their headers are carved
// from store-wide slabs, so a seal allocates only the next open chunk's
// buffer. WithLinearScan and WithRollup build the reference store the
// read-path equivalence tests and BenchmarkQueryServe compare against; it
// stores the same chunks.
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
// chunks never change, appends write past the open-chunk words a view
// holds, and a seal starts a fresh open buffer instead of reusing the
// old one; a tier view shares only closed buckets, which ingest never
// touches again, and copies the last one. A read starts no goroutines of
// its own. All methods are safe
// for concurrent use.
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
	for _, s := range st.snapshot(nil, f, false) {
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

// snapshot appends the matching series to dst in creation order as views
// that stay valid after the lock is released; withRollups takes the view
// of a series' rollup tier instead, where the series keeps one. It
// selects through the inverted index, or by walking every series in the
// linear-scan store and for filters with no indexed dimension. The store
// never rewrites a point or a closed tier bucket a view holds, so the
// views stay valid after the lock is released.
func (st *MemStore) snapshot(dst []seriesSnap, f Filter, withRollups bool) []seriesSnap {
	st.mu.RLock()
	defer st.mu.RUnlock()
	add := func(s *memSeries) {
		if !f.matches(s.tags) {
			return
		}
		snap := seriesSnap{tags: s.tags}
		if withRollups && s.roll != nil {
			snap.roll = s.roll.view()
		} else {
			snap.pts = s.view()
		}
		dst = append(dst, snap)
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
	return dst
}

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
