package examon

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// The shared conformance suite: the store and the reference-store options
// must all satisfy the same insert/query contract.

// conformanceEngines returns a fresh instance of every store configuration
// under a name.
func conformanceEngines() map[string]func() *MemStore {
	return map[string]func() *MemStore{
		"mem": func() *MemStore { return NewMemStore() },
		// The reference-store options must satisfy the same contract: the
		// linear variant walks every series on every read, the norollup
		// variant keeps the index but serves every aggregation from raw
		// points.
		"mem-linear":   func() *MemStore { return NewMemStore(WithLinearScan(true)) },
		"mem-norollup": func() *MemStore { return NewMemStore(WithRollup(-1)) },
	}
}

func confTags(nodeID, core int, metric string) Tags {
	plugin := "pmu_pub"
	if core < 0 {
		plugin = "dstat_pub"
	}
	return Tags{Org: "o", Cluster: "c", Node: fmt.Sprintf("mc%02d", nodeID),
		Plugin: plugin, Core: core, Metric: metric}
}

func TestStorageConformance(t *testing.T) {
	for name, mk := range conformanceEngines() {
		t.Run(name, func(t *testing.T) {
			t.Run("InsertAndFilter", func(t *testing.T) { testInsertAndFilter(t, mk()) })
			t.Run("TimeRange", func(t *testing.T) { testTimeRange(t, mk()) })
			t.Run("InsertionOrder", func(t *testing.T) { testInsertionOrder(t, mk()) })
			t.Run("BatchEquivalence", func(t *testing.T) { testBatchEquivalence(t, mk(), mk()) })
			t.Run("KeysAndCount", func(t *testing.T) { testKeysAndCount(t, mk()) })
			t.Run("OrgClusterNotIdentity", func(t *testing.T) { testOrgClusterNotIdentity(t, mk()) })
			t.Run("ConcurrentIngestQuery", func(t *testing.T) { testConcurrentIngestQuery(t, mk()) })
		})
	}
}

func testInsertAndFilter(t *testing.T, st *MemStore) {
	for n := 1; n <= 3; n++ {
		for core := 0; core < 2; core++ {
			st.Insert(confTags(n, core, "instret"), 1, float64(n*10+core))
		}
		st.Insert(confTags(n, -1, "temperature.cpu_temp"), 1, 40)
	}
	if got := len(st.Query(Filter{})); got != 9 {
		t.Fatalf("all series = %d, want 9", got)
	}
	if got := len(st.Query(Filter{Node: "mc02"})); got != 3 {
		t.Errorf("mc02 series = %d, want 3", got)
	}
	if got := len(st.Query(Filter{Plugin: "dstat_pub"})); got != 3 {
		t.Errorf("dstat series = %d, want 3", got)
	}
	if got := len(st.Query(Filter{Metric: "instret", Core: intPtr(1)})); got != 3 {
		t.Errorf("core-1 instret series = %d, want 3", got)
	}
	if got := len(st.Query(Filter{Node: "mc99"})); got != 0 {
		t.Errorf("unknown node matched %d series", got)
	}
	got := st.Query(Filter{Node: "mc03", Metric: "instret", Core: intPtr(0)})
	if len(got) != 1 || len(got[0].Points) != 1 || got[0].Points[0].V != 30 {
		t.Errorf("point query = %+v", got)
	}
}

func testTimeRange(t *testing.T, st *MemStore) {
	tags := confTags(1, -1, "m")
	for i := 0; i < 10; i++ {
		st.Insert(tags, float64(i), float64(i*10))
	}
	got := st.Query(Filter{From: 3, To: 7})
	if len(got) != 1 || len(got[0].Points) != 4 {
		t.Fatalf("range query = %+v, want 4 points (t=3..6)", got)
	}
	// To == 0 means unbounded (see the Filter docs: an exclusive bound of
	// exactly zero is inexpressible).
	if got := st.Query(Filter{From: 5}); len(got[0].Points) != 5 {
		t.Errorf("open-ended query = %d points, want 5", len(got[0].Points))
	}
	if got := st.Query(Filter{To: 0}); len(got[0].Points) != 10 {
		t.Errorf("To=0 query = %d points, want all 10 (unbounded)", len(got[0].Points))
	}
	// From is inclusive, To exclusive.
	if got := st.Query(Filter{From: 3, To: 4}); len(got[0].Points) != 1 {
		t.Errorf("single-sample window = %d points, want 1", len(got[0].Points))
	}
	// A series with no in-range points is still returned, empty.
	if got := st.Query(Filter{From: 100}); len(got) != 1 || len(got[0].Points) != 0 {
		t.Errorf("out-of-range query = %+v, want one empty series", got)
	}
}

func testInsertionOrder(t *testing.T, st *MemStore) {
	// First-insert order must be reproduced by Query, whether the read
	// goes through the index or walks every series.
	var want []Tags
	for i := 9; i >= 0; i-- {
		tags := confTags(i, -1, "m")
		st.Insert(tags, 0, 0)
		st.Insert(tags, 1, 1) // second insert must not affect order
		want = append(want, tags)
	}
	var got []Tags
	for _, s := range st.Query(Filter{}) {
		got = append(got, s.Tags)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("query order = %v, want %v", got, want)
	}
}

func testBatchEquivalence(t *testing.T, single, batched *MemStore) {
	var batch []Sample
	for n := 0; n < 4; n++ {
		for i := 0; i < 5; i++ {
			s := Sample{Tags: confTags(n, 0, "cycle"), T: float64(i), V: float64(n*100 + i)}
			single.Insert(s.Tags, s.T, s.V)
			batch = append(batch, s)
		}
	}
	batched.InsertBatch(batch)
	a, b := single.Query(Filter{}), batched.Query(Filter{})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("batch insert diverges from single inserts:\n%+v\nvs\n%+v", a, b)
	}
	if single.SeriesCount() != batched.SeriesCount() {
		t.Errorf("series counts differ: %d vs %d", single.SeriesCount(), batched.SeriesCount())
	}
}

func testKeysAndCount(t *testing.T, st *MemStore) {
	if st.SeriesCount() != 0 || len(st.Keys()) != 0 {
		t.Fatalf("fresh store not empty")
	}
	st.Insert(confTags(2, 1, "cycle"), 0, 0)
	st.Insert(confTags(1, -1, "load_avg.1m"), 0, 0)
	st.Insert(confTags(2, 1, "cycle"), 1, 1)
	if st.SeriesCount() != 2 {
		t.Errorf("series count = %d, want 2", st.SeriesCount())
	}
	keys := st.Keys()
	want := []string{"mc01/dstat_pub/load_avg.1m", "mc02/pmu_pub/core1/cycle"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("keys = %v, want %v (sorted)", keys, want)
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("keys not sorted: %v", keys)
	}
}

// testOrgClusterNotIdentity pins the seed's series identity: org/cluster
// are scoping metadata, so samples differing only there extend one series
// (which keeps the first-seen tag set) — Keys() must never list the same
// rendered key twice.
func testOrgClusterNotIdentity(t *testing.T, st *MemStore) {
	a := Tags{Org: "orgA", Cluster: "cA", Node: "mc01", Plugin: "dstat_pub", Core: -1, Metric: "m"}
	b := Tags{Org: "orgB", Cluster: "cB", Node: "mc01", Plugin: "dstat_pub", Core: -1, Metric: "m"}
	st.Insert(a, 0, 1)
	st.Insert(b, 1, 2)
	if st.SeriesCount() != 1 {
		t.Fatalf("series count = %d, want 1 (org/cluster are not identity)", st.SeriesCount())
	}
	got := st.Query(Filter{Node: "mc01"})
	if len(got) != 1 || len(got[0].Points) != 2 {
		t.Fatalf("query = %+v, want one merged 2-point series", got)
	}
	if got[0].Tags != a {
		t.Errorf("merged series tags = %+v, want first-seen %+v", got[0].Tags, a)
	}
	if keys := st.Keys(); len(keys) != 1 {
		t.Errorf("keys = %v, want a single entry", keys)
	}
}

// testConcurrentIngestQuery hammers the store with parallel per-node
// writers and concurrent readers; run under -race this is the regression
// net for the ingest/query locking that fleet federation relies on.
func testConcurrentIngestQuery(t *testing.T, st *MemStore) {
	const (
		writers = 8
		ticks   = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]Sample, 0, 4)
			for i := 0; i < ticks; i++ {
				batch = batch[:0]
				for core := 0; core < 2; core++ {
					batch = append(batch, Sample{
						Tags: confTags(w, core, "instret"),
						T:    float64(i), V: float64(i),
					})
				}
				st.InsertBatch(batch)
				st.Insert(confTags(w, -1, "temperature.cpu_temp"), float64(i), 40)
			}
		}(w)
	}
	stop := make(chan struct{})
	var (
		readMu  sync.Mutex
		readErr error
	)
	fail := func(err error) {
		readMu.Lock()
		if readErr == nil {
			readErr = err
		}
		readMu.Unlock()
	}
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Yield once a round, as TestParallelQueryDuringIngest
				// does: a read never parks, so readers that do not yield
				// hold the CPUs the writers need.
				runtime.Gosched()
				node := fmt.Sprintf("mc%02d", r)
				for _, s := range st.Query(Filter{Node: node, Metric: "instret"}) {
					for i := 1; i < len(s.Points); i++ {
						if s.Points[i].T < s.Points[i-1].T {
							fail(fmt.Errorf("series %s went back in time", s.Key()))
							return
						}
					}
				}
				if _, err := QueryAgg(st, Filter{Node: node}, AggOptions{Op: AggMax, Step: 50}); err != nil {
					fail(err)
					return
				}
				st.SeriesCount()
				st.Keys()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if got := st.SeriesCount(); got != writers*3 {
		t.Fatalf("series count = %d, want %d", got, writers*3)
	}
	for _, s := range st.Query(Filter{Metric: "instret"}) {
		if len(s.Points) != ticks {
			t.Fatalf("series %s has %d points, want %d", s.Key(), len(s.Points), ticks)
		}
	}
}

func TestTSDBOnValidation(t *testing.T) {
	if _, err := NewTSDBOn(nil); err == nil {
		t.Error("nil engine accepted")
	}
	st := NewMemStore()
	got, err := NewTSDBOn(st)
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Errorf("NewTSDBOn returned %p, want its argument %p", got, st)
	}
}

// TestQueryAggBucketGuard: a fine step over a long range streams its two
// buckets whatever the grid, open-ended or bounded; only a bucket index
// past the int64 range fails the query.
func TestQueryAggBucketGuard(t *testing.T) {
	st := NewMemStore()
	st.Insert(confTags(1, -1, "m"), 0, 1)
	st.Insert(confTags(1, -1, "m"), 1e12, 2) // 1e15 buckets apart at step 1e-3
	for _, f := range []Filter{{}, {From: 0, To: 2e12}} {
		got, err := QueryAgg(st, f, AggOptions{Op: AggAvg, Step: 1e-3})
		if err != nil {
			t.Fatalf("range [%v,%v): %v", f.From, f.To, err)
		}
		if len(got) != 1 || len(got[0].Points) != 2 || got[0].Points[0].V != 1 || got[0].Points[1].V != 2 {
			t.Errorf("range [%v,%v): %+v, want the two points", f.From, f.To, got)
		}
	}
	// A quotient beyond int64 range must still error, not silently skip
	// the samples via an implementation-defined float-to-int conversion.
	if _, err := QueryAgg(st, Filter{}, AggOptions{Op: AggAvg, Step: 1e-30}); err == nil {
		t.Error("int-overflowing bucket index accepted")
	}
}
