package examon

import (
	"reflect"
	"testing"
)

func TestPublishSubscribe(t *testing.T) {
	b := NewBroker()
	x := Sample{Tags: Tags{Org: "unibo", Node: "n", Plugin: "p", Core: -1, Metric: "x"}, T: 2, V: 1}
	y := Sample{Tags: Tags{Org: "other", Node: "n", Plugin: "p", Core: -1, Metric: "y"}, T: 4, V: 3}
	// With no store attached, accepted samples are counted and dropped.
	if err := b.PublishBatch([]Sample{x}); err != nil {
		t.Fatal(err)
	}
	if b.Published() != 1 {
		t.Errorf("published without a store = %d, want 1", b.Published())
	}
	st, err := NewMemStore().Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		x.T, y.T = float64(10+i), float64(20+i)
		if err := b.PublishBatch([]Sample{x, y}); err != nil {
			t.Fatal(err)
		}
	}
	// Every sample of every accepted batch reaches the store, in order,
	// whatever its org: the store is the broker's only destination.
	for _, tc := range []struct {
		metric string
		want   []Point
	}{
		{"x", []Point{{T: 10, V: 1}, {T: 11, V: 1}, {T: 12, V: 1}}},
		{"y", []Point{{T: 20, V: 3}, {T: 21, V: 3}, {T: 22, V: 3}}},
	} {
		got := st.Query(Filter{Metric: tc.metric})
		if len(got) != 1 || !reflect.DeepEqual(got[0].Points, tc.want) {
			t.Errorf("metric %s stored %+v, want points %v", tc.metric, got, tc.want)
		}
	}
	if b.Published() != 7 {
		t.Errorf("published = %d, want 7", b.Published())
	}
}

// TestSubscribeValidation: Attach rejects a nil store, a nil broker, and
// any store for a broker that already feeds one, the same store included;
// a rejected Attach returns no store.
func TestSubscribeValidation(t *testing.T) {
	b := NewBroker()
	st := NewMemStore()
	got, err := st.Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Errorf("Attach returned %p, want the store %p", got, st)
	}
	var nilStore *MemStore
	for _, c := range []struct {
		st   *MemStore
		b    *Broker
		what string
	}{
		{nilStore, NewBroker(), "nil store"},
		{NewMemStore(), nil, "nil broker"},
		{NewMemStore(), b, "second store"},
		{st, b, "same store twice"},
	} {
		if got, err := c.st.Attach(c.b); err == nil || got != nil {
			t.Errorf("%s accepted: st=%v err=%v", c.what, got, err)
		}
	}
}

func TestPublishValidation(t *testing.T) {
	b := NewBroker()
	for _, s := range []Sample{
		{Tags: Tags{Plugin: "p", Metric: "m"}},                            // no node
		{Tags: Tags{Node: "n", Metric: "m"}},                              // no plugin
		{Tags: Tags{Node: "n", Plugin: "p"}},                              // no metric
		{Tags: Tags{Node: "n", Plugin: "p", Metric: "m+x"}},               // wildcard
		{Tags: Tags{Node: "n#", Plugin: "p", Metric: "m"}},                // wildcard
		{Tags: Tags{Org: "o+", Node: "n", Plugin: "p", Metric: "m"}},      // wildcard
		{Tags: Tags{Cluster: "c#c", Node: "n", Plugin: "p", Metric: "m"}}, // wildcard
		{Tags: Tags{Node: "n", Plugin: "pub/sub", Metric: "m"}},           // slash outside metric
	} {
		if err := b.PublishBatch([]Sample{s}); err == nil {
			t.Errorf("sample %+v accepted", s)
		}
	}
	// Nested metrics keep their slashes.
	if err := b.PublishBatch([]Sample{{Tags: Tags{Node: "n", Plugin: "p", Metric: "a/b"}}}); err != nil {
		t.Errorf("nested metric rejected: %v", err)
	}
}
