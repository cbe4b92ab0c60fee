package examon

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// handleStreamTags is the tag universe of the handle equivalence test:
// several nodes, plugins, cores and metrics, empty scope tags that the
// broker defaults, and pairs that differ only in Org/Cluster (one series
// identity, first-seen tags kept).
func handleStreamTags() []Tags {
	var out []Tags
	for n := 0; n < 3; n++ {
		for core := -1; core < 2; core++ {
			for _, metric := range []string{"instret", "cycle", "power/total"} {
				tg := confTags(n, core, metric)
				if n == 2 {
					tg.Org, tg.Cluster = "", ""
				}
				out = append(out, tg)
			}
		}
	}
	// Same identity as an earlier entry, other scope tags.
	alias := confTags(1, 0, "instret")
	alias.Org, alias.Cluster = "other", "elsewhere"
	return append(out, alias)
}

// TestHandlePublishMatchesPublishBatch publishes one randomized sample
// stream twice: tag-keyed through PublishBatch into store A, and through
// registered handles into store B. The stream has ticks that publish a
// random subset in random order, out-of-order timestamps on a fixed
// subset of series (which then drop their rollup tiers while the others
// keep theirs), and a handle that never publishes. Both stores must hold
// the same series, created in the same order, with the same points and
// aggregates.
func TestHandlePublishMatchesPublishBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tags := handleStreamTags()
	brokerA, brokerB := NewBroker(), NewBroker()
	stA, err := NewMemStore().Attach(brokerA)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := NewMemStore().Attach(brokerB)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*SeriesHandle, len(tags))
	for i, tg := range tags {
		if handles[i], err = brokerB.Register(tg); err != nil {
			t.Fatal(err)
		}
	}
	// A handle that never publishes must leave no series behind.
	if _, err := brokerB.Register(confTags(9, -1, "never")); err != nil {
		t.Fatal(err)
	}
	var (
		batch []Sample
		hs    []*SeriesHandle
		vs    []float64
	)
	publish := func(now float64, idx []int) {
		if len(idx) == 0 {
			return
		}
		batch, hs, vs = batch[:0], hs[:0], vs[:0]
		for _, i := range idx {
			v := float64(rng.Intn(1<<20)) / 4 // dyadic: rollup sums are exact
			batch = append(batch, Sample{Tags: tags[i], T: now, V: v})
			hs = append(hs, handles[i])
			vs = append(vs, v)
		}
		if err := brokerA.PublishBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := brokerB.Publish(now, hs, vs); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 600; tick++ {
		// Mostly 0.5 s steps; every 37th tick goes 7 s back in time on
		// the series whose index is a multiple of 4.
		now := float64(tick) * 0.5
		sel := rng.Perm(len(tags))[:1+rng.Intn(len(tags))]
		if tick%37 == 36 {
			var back, rest []int
			for _, i := range sel {
				if i%4 == 0 {
					back = append(back, i)
				} else {
					rest = append(rest, i)
				}
			}
			publish(now-7, back)
			sel = rest
		}
		publish(now, sel)
	}

	if a, b := brokerA.Published(), brokerB.Published(); a != b {
		t.Errorf("published: batch %d, handles %d", a, b)
	}
	if a, b := stA.SeriesCount(), stB.SeriesCount(); a != b {
		t.Errorf("series count: batch %d, handles %d", a, b)
	}
	if a, b := stA.Keys(), stB.Keys(); !reflect.DeepEqual(a, b) {
		t.Errorf("keys diverge:\n%v\nvs\n%v", a, b)
	}
	filters := append(equivalenceFilters(), Filter{Org: "other"}, Filter{Cluster: DefaultCluster},
		Filter{Metric: "power/total", From: 40, To: 200})
	for _, f := range filters {
		if a, b := stA.Query(f), stB.Query(f); !reflect.DeepEqual(a, b) {
			t.Errorf("filter %+v: Query diverges", f)
		}
		// Step 60 over aligned bounds is served from the rollup tiers,
		// step 7 from raw points.
		for _, opts := range []AggOptions{{Op: AggAvg, Step: 60}, {Op: AggMax, Step: 7}, {Op: AggRate, Step: 30}} {
			a, errA := QueryAgg(stA, f, opts)
			b, errB := QueryAgg(stB, f, opts)
			if (errA == nil) != (errB == nil) || !reflect.DeepEqual(a, b) {
				t.Errorf("filter %+v %+v: QueryAgg diverges (errors %v, %v)", f, opts, errA, errB)
			}
		}
	}
	if stA.rollupServed.Load() == 0 || stA.rollupServed.Load() != stB.rollupServed.Load() {
		t.Errorf("rollup-served series: batch %d, handles %d, want equal and non-zero",
			stA.rollupServed.Load(), stB.rollupServed.Load())
	}
}

// TestRegisterRejectsLikePublishBatch: Register and PublishBatch share
// one tag rule, so they accept and reject exactly the same tags.
func TestRegisterRejectsLikePublishBatch(t *testing.T) {
	cases := []Tags{
		{Node: "n", Plugin: "p", Metric: "m"},
		{Node: "n", Plugin: "p", Metric: "a/b"},
		{Org: "o", Cluster: "c", Node: "n", Plugin: "p", Core: 3, Metric: "m"},
		{Plugin: "p", Metric: "m"},
		{Node: "n", Metric: "m"},
		{Node: "n", Plugin: "p"},
		{Node: "n", Plugin: "p", Metric: "m+x"},
		{Node: "n", Plugin: "p", Metric: "m#"},
		{Node: "n#", Plugin: "p", Metric: "m"},
		{Node: "n/1", Plugin: "p", Metric: "m"},
		{Org: "o+", Node: "n", Plugin: "p", Metric: "m"},
		{Org: "o/o", Node: "n", Plugin: "p", Metric: "m"},
		{Cluster: "c#c", Node: "n", Plugin: "p", Metric: "m"},
		{Cluster: "a/b", Node: "n", Plugin: "p", Metric: "m"},
		{Node: "n", Plugin: "pub/sub", Metric: "m"},
		{Node: "n", Plugin: "p+", Metric: "m"},
	}
	for _, tg := range cases {
		b := NewBroker()
		h, regErr := b.Register(tg)
		pubErr := b.PublishBatch([]Sample{{Tags: tg}})
		if (regErr == nil) != (pubErr == nil) {
			t.Errorf("tags %+v: Register err %v, PublishBatch err %v", tg, regErr, pubErr)
		}
		if (regErr == nil) != (h != nil) {
			t.Errorf("tags %+v: Register returned handle %v with err %v", tg, h, regErr)
		}
	}
}

// TestPublishHandleValidation: a length mismatch, a nil handle or a
// handle registered with another broker rejects the whole publish before
// anything is counted or stored.
func TestPublishHandleValidation(t *testing.T) {
	b, other := NewBroker(), NewBroker()
	st, err := NewMemStore().Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := b.Register(Tags{Node: "n", Plugin: "p", Core: -1, Metric: "m"})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Register(Tags{Node: "n", Plugin: "p", Core: -1, Metric: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		hs []*SeriesHandle
		vs []float64
	}{
		"length mismatch": {[]*SeriesHandle{mine}, []float64{1, 2}},
		"nil handle":      {[]*SeriesHandle{mine, nil}, []float64{1, 2}},
		"foreign handle":  {[]*SeriesHandle{mine, foreign}, []float64{1, 2}},
	} {
		if err := b.Publish(1, c.hs, c.vs); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if b.Published() != 0 || st.SeriesCount() != 0 {
		t.Errorf("rejected publishes left published=%d series=%d", b.Published(), st.SeriesCount())
	}
	if err := b.Publish(1, nil, nil); err != nil || b.Published() != 0 {
		t.Errorf("empty publish: err %v, published %d", err, b.Published())
	}
	// Registered tags are defaulted once, like PublishBatch does per sample.
	if err := b.Publish(2, []*SeriesHandle{mine}, []float64{5}); err != nil {
		t.Fatal(err)
	}
	got := st.Query(Filter{})
	if len(got) != 1 || got[0].Tags.Org != DefaultOrg || got[0].Tags.Cluster != DefaultCluster ||
		!reflect.DeepEqual(got[0].Points, []Point{{T: 2, V: 5}}) {
		t.Errorf("stored %+v, want one defaulted series with the point (2, 5)", got)
	}
}

// TestConcurrentHandlePublish publishes through handles from several
// goroutines, pairs of which share one node's handles, while readers
// query the store: under -race this is the regression net for handles
// resolving their series under the store's lock. Every sample lands, and
// each series is created exactly once.
func TestConcurrentHandlePublish(t *testing.T) {
	b := NewBroker()
	st, err := NewMemStore().Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	const (
		nodes   = 3
		writers = 2 * nodes // two writers per node share its handles
		cores   = 4
		ticks   = 200
	)
	handles := make([][]*SeriesHandle, nodes)
	for n := range handles {
		for core := 0; core < cores; core++ {
			h, err := b.Register(confTags(n, core, "instret"))
			if err != nil {
				t.Fatal(err)
			}
			handles[n] = append(handles[n], h)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(hs []*SeriesHandle) {
			defer wg.Done()
			vs := make([]float64, len(hs))
			for i := 0; i < ticks; i++ {
				for k := range vs {
					vs[k] = float64(i)
				}
				if err := b.Publish(float64(i)*0.5, hs, vs); err != nil {
					t.Error(err)
					return
				}
			}
		}(handles[w%nodes])
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Query(Filter{Metric: "instret", From: 10, To: 60})
				if _, err := QueryAgg(st, Filter{Core: intPtr(1)}, AggOptions{Op: AggAvg, Step: 60}); err != nil {
					t.Error(err)
					return
				}
				st.Keys()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if got := st.SeriesCount(); got != nodes*cores {
		t.Errorf("series = %d, want %d", got, nodes*cores)
	}
	for _, s := range st.Query(Filter{}) {
		if len(s.Points) != 2*ticks {
			t.Errorf("series %s has %d points, want %d", s.Key(), len(s.Points), 2*ticks)
		}
	}
	if got, want := b.Published(), uint64(writers*cores*ticks); got != want {
		t.Errorf("published = %d, want %d", got, want)
	}
}
