package examon

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestPublishBatchDelivery pins what a batch does to the attached store:
// each sample extends its own series in batch order, new series are
// created in order of first appearance, and the batch is stored before
// PublishBatch returns.
func TestPublishBatchDelivery(t *testing.T) {
	b := NewBroker()
	st, err := NewMemStore().Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Sample{
		{Tags: Tags{Node: "mc01", Plugin: "pmu_pub", Core: 0, Metric: "instret"}, T: 1, V: 10},
		{Tags: Tags{Node: "mc01", Plugin: "pmu_pub", Core: 0, Metric: "cycle"}, T: 1, V: 11},
		{Tags: Tags{Node: "mc01", Plugin: "pmu_pub", Core: 1, Metric: "instret"}, T: 1, V: 12},
		{Tags: Tags{Node: "mc01", Plugin: "dstat_pub", Core: -1, Metric: "load_avg.1m"}, T: 1, V: 13},
		{Tags: Tags{Node: "mc01", Plugin: "pmu_pub", Core: 0, Metric: "instret"}, T: 2, V: 14},
	}
	if err := b.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	got := st.Query(Filter{})
	want := []struct {
		metric string
		core   int
		pts    []Point
	}{
		{"instret", 0, []Point{{T: 1, V: 10}, {T: 2, V: 14}}},
		{"cycle", 0, []Point{{T: 1, V: 11}}},
		{"instret", 1, []Point{{T: 1, V: 12}}},
		{"load_avg.1m", -1, []Point{{T: 1, V: 13}}},
	}
	if len(got) != len(want) {
		t.Fatalf("stored %d series, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Tags.Metric != w.metric || got[i].Tags.Core != w.core || !reflect.DeepEqual(got[i].Points, w.pts) {
			t.Errorf("series %d = %+v, want %s core %d with %v", i, got[i], w.metric, w.core, w.pts)
		}
	}
	if b.Published() != uint64(len(batch)) {
		t.Errorf("published = %d, want %d", b.Published(), len(batch))
	}
}

func TestPublishBatch(t *testing.T) {
	b := NewBroker()
	db, err := NewMemStore().Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Sample, 0, 8)
	for core := 0; core < 4; core++ {
		batch = append(batch, Sample{
			Tags: Tags{Node: "mc01", Plugin: "pmu_pub", Core: core, Metric: "instret"},
			T:    1, V: float64(core),
		})
	}
	if err := b.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	if b.Published() != 4 {
		t.Errorf("published = %d, want 4", b.Published())
	}
	if db.SeriesCount() != 4 {
		t.Errorf("series = %d, want 4", db.SeriesCount())
	}
	// Org/Cluster defaulted during validation.
	got := db.Query(Filter{Core: intPtr(2)})
	if len(got) != 1 || got[0].Tags.Org != DefaultOrg || got[0].Tags.Cluster != DefaultCluster {
		t.Errorf("defaulted tags = %+v", got)
	}
	// The caller may reuse the batch after return: overwriting it leaves
	// the stored points and tags as published.
	want := db.Query(Filter{})
	for i := range batch {
		batch[i] = Sample{Tags: Tags{Node: "mc99", Plugin: "x", Core: 9, Metric: "y"}, T: -1, V: -1}
	}
	if got := db.Query(Filter{}); !reflect.DeepEqual(got, want) {
		t.Errorf("stored series changed with the reused batch:\n%+v\nwant\n%+v", got, want)
	}
	// Empty batch is a no-op.
	if err := b.PublishBatch(nil); err != nil {
		t.Fatal(err)
	}
	if b.Published() != 4 {
		t.Errorf("empty batch counted")
	}
}

// TestPublishSampleValidation: a bad sample anywhere in a batch rejects
// the batch before any normalization or storage.
func TestPublishSampleValidation(t *testing.T) {
	b := NewBroker()
	db, err := NewMemStore().Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Sample{
		{Tags: Tags{Node: "n", Plugin: "p", Metric: "m"}, T: 1, V: 1},
		{Tags: Tags{Node: "n", Plugin: "p"}},
	}
	if err := b.PublishBatch(batch); err == nil {
		t.Error("bad batch accepted")
	}
	if db.SeriesCount() != 0 {
		t.Error("bad batch partially stored")
	}
	if batch[0].Tags.Org != "" || batch[0].Tags.Cluster != "" {
		t.Errorf("rejected batch was normalized: %+v", batch[0].Tags)
	}
	if b.Published() != 0 {
		t.Errorf("published = %d", b.Published())
	}
}

// TestConcurrentSubscribePublish publishes from several goroutines while
// one reads the store and another tries to attach a second store: under
// -race this is the regression net for the broker's store handoff. Every
// sample lands in the first store, and the second attach always fails.
func TestConcurrentSubscribePublish(t *testing.T) {
	b := NewBroker()
	db, err := NewMemStore().Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		ticks   = 100
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := fmt.Sprintf("mc%02d", w)
			batch := make([]Sample, 0, 2)
			for i := 0; i < ticks; i++ {
				batch = batch[:0]
				for core := 0; core < 2; core++ {
					batch = append(batch, Sample{
						Tags: Tags{Node: node, Plugin: "pmu_pub", Core: core, Metric: "instret"},
						T:    float64(i), V: float64(i),
					})
				}
				if err := b.PublishBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(2)
	go func() { // reader
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range db.Query(Filter{Metric: "instret"}) {
				for i := 1; i < len(s.Points); i++ {
					if s.Points[i].T < s.Points[i-1].T {
						t.Errorf("series %s went back in time", s.Key())
						return
					}
				}
			}
			if _, err := QueryAgg(db, Filter{Core: intPtr(1)}, AggOptions{Op: AggMax, Step: 10}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // second attach, racing the publishers
		defer rwg.Done()
		for i := 0; i < 50; i++ {
			if st, err := NewMemStore().Attach(b); err == nil || st != nil {
				t.Errorf("second store attached during ingest: st=%v err=%v", st, err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if db.SeriesCount() != writers*2 {
		t.Errorf("series = %d, want %d", db.SeriesCount(), writers*2)
	}
	for _, s := range db.Query(Filter{}) {
		if len(s.Points) != ticks {
			t.Errorf("series %s has %d points, want %d", s.Key(), len(s.Points), ticks)
		}
	}
	if got := b.Published(); got != writers*ticks*2 {
		t.Errorf("published = %d, want %d", got, writers*ticks*2)
	}
}

// TestSubscribeSamplesValidation: rejected attaches leave the first store
// attached and receiving, and the rejected store receives nothing.
func TestSubscribeSamplesValidation(t *testing.T) {
	b := NewBroker()
	first, err := NewMemStore().Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	second := NewMemStore()
	for _, st := range []*MemStore{second, first} {
		if got, err := st.Attach(b); err == nil || got != nil {
			t.Errorf("attach over the first store accepted: st=%v err=%v", got, err)
		}
	}
	sample := Sample{Tags: Tags{Node: "n", Plugin: "p", Core: -1, Metric: "m"}, T: 1, V: 2}
	if err := b.PublishBatch([]Sample{sample}); err != nil {
		t.Fatal(err)
	}
	if got := first.Query(Filter{}); len(got) != 1 || len(got[0].Points) != 1 {
		t.Errorf("first store after rejected attaches holds %+v, want the one sample", got)
	}
	if second.SeriesCount() != 0 {
		t.Errorf("rejected store received %d series", second.SeriesCount())
	}
}
