package examon

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTagsTopicRoundTrip(t *testing.T) {
	// Each tag set renders its Table II topic, and that topic, used as an
	// exact pattern, selects the tag set again.
	for _, tc := range []struct {
		tags  Tags
		topic string
	}{
		{Tags{Org: "unibo", Cluster: "montecimone", Node: "mc03", Plugin: "pmu_pub", Core: 2, Metric: "instret"},
			"org/unibo/cluster/montecimone/node/mc03/plugin/pmu_pub/chnl/data/core/2/instret"},
		{Tags{Org: "unibo", Cluster: "montecimone", Node: "mc03", Plugin: "pmu_pub", Core: 12, Metric: "cycle"},
			"org/unibo/cluster/montecimone/node/mc03/plugin/pmu_pub/chnl/data/core/12/cycle"},
		{Tags{Org: "o", Cluster: "c", Node: "n", Plugin: "dstat_pub", Core: -1, Metric: "load_avg.1m"},
			"org/o/cluster/c/node/n/plugin/dstat_pub/chnl/data/load_avg.1m"},
		{Tags{Org: "o", Cluster: "c", Node: "n", Plugin: "dstat_pub", Core: -1, Metric: "nested/metric/name"},
			"org/o/cluster/c/node/n/plugin/dstat_pub/chnl/data/nested/metric/name"},
	} {
		if got := tc.tags.Topic(); got != tc.topic {
			t.Errorf("Topic() = %q, want %q", got, tc.topic)
		}
		levels, err := validatePattern(tc.topic)
		if err != nil {
			t.Fatal(err)
		}
		if !matchTagLevels(levels, tc.tags) {
			t.Errorf("topic %q does not select %+v", tc.topic, tc.tags)
		}
	}
	// Topic must agree with the Table II builders.
	tags := Tags{Org: "unibo", Cluster: "montecimone", Node: "mc03", Plugin: "pmu_pub", Core: 2, Metric: "instret"}
	if tags.Topic() != PMUTopic("unibo", "montecimone", "mc03", 2, "instret") {
		t.Errorf("Topic() = %q diverges from PMUTopic", tags.Topic())
	}
	stats := Tags{Org: "unibo", Cluster: "montecimone", Node: "mc03", Plugin: "dstat_pub", Core: -1, Metric: "load_avg.1m"}
	if stats.Topic() != StatsTopic("unibo", "montecimone", "mc03", "load_avg.1m") {
		t.Errorf("Topic() = %q diverges from StatsTopic", stats.Topic())
	}
}

// TestMatchTagLevelsAgainstRendered checks the allocation-free tag matcher
// against the reference string matcher over a grid of patterns and tags.
func TestMatchTagLevelsAgainstRendered(t *testing.T) {
	tagSets := []Tags{
		{Org: "unibo", Cluster: "mc", Node: "mc01", Plugin: "pmu_pub", Core: 0, Metric: "instret"},
		{Org: "unibo", Cluster: "mc", Node: "mc01", Plugin: "pmu_pub", Core: 13, Metric: "cycle"},
		{Org: "unibo", Cluster: "mc", Node: "mc02", Plugin: "dstat_pub", Core: -1, Metric: "load_avg.1m"},
		{Org: "unibo", Cluster: "mc", Node: "mc02", Plugin: "dstat_pub", Core: -1, Metric: "a/b/c"},
	}
	patterns := []string{
		"#", "org/#", "org/unibo/#", "org/other/#",
		"org/+/cluster/+/node/+/plugin/pmu_pub/#",
		"org/+/cluster/+/node/mc01/plugin/+/chnl/data/core/0/instret",
		"org/+/cluster/+/node/mc01/plugin/+/chnl/data/core/+/instret",
		"org/+/cluster/+/node/mc01/plugin/+/chnl/data/core/13/cycle",
		"org/+/cluster/+/node/mc01/plugin/+/chnl/data/core/1/instret",
		"org/unibo/cluster/mc/node/mc02/plugin/dstat_pub/chnl/data/load_avg.1m",
		"org/unibo/cluster/mc/node/mc02/plugin/dstat_pub/chnl/data/a/b/c",
		"org/unibo/cluster/mc/node/mc02/plugin/dstat_pub/chnl/data/a/b",
		"org/unibo/cluster/mc/node/mc02/plugin/dstat_pub/chnl/data/a/+/c",
		"org/unibo/cluster/mc/node/mc02/plugin/dstat_pub/chnl/data",
		"org/unibo/cluster/mc/node/mc02/plugin/dstat_pub/chnl/data/#",
		"org/unibo/cluster/mc/node/mc01/plugin/pmu_pub/chnl/data/core/#",
		"org/unibo/cluster/mc/node/mc01/plugin/pmu_pub/chnl/data/core/0",
		"+/+/+/+/+/+/+/+/+/+/+/+/+",
	}
	for _, tags := range tagSets {
		topic := tags.Topic()
		for _, pattern := range patterns {
			want, err := MatchTopic(pattern, topic)
			if err != nil {
				t.Fatalf("MatchTopic(%q, %q): %v", pattern, topic, err)
			}
			levels, err := validatePattern(pattern)
			if err != nil {
				t.Fatal(err)
			}
			if got := matchTagLevels(levels, tags); got != want {
				t.Errorf("matchTagLevels(%q, %+v) = %v, reference says %v", pattern, tags, got, want)
			}
		}
	}
}

func TestEqInt(t *testing.T) {
	for v := 0; v < 200; v++ {
		if !eqInt(fmt.Sprintf("%d", v), v) {
			t.Errorf("eqInt(%d) = false", v)
		}
	}
	for _, tc := range []struct {
		s string
		v int
	}{{"", 0}, {"1", 0}, {"0", 1}, {"01", 1}, {"10", 1}, {"1", 10}, {"9", 19}, {"x", 0}} {
		if eqInt(tc.s, tc.v) {
			t.Errorf("eqInt(%q, %d) = true", tc.s, tc.v)
		}
	}
}

// TestPublishBatchDelivery pins the three dispatch cases: a subscriber
// matching the whole batch receives the publisher's slice itself, one
// matching part of it receives exactly the matching samples in order, and
// one matching none is not called.
func TestPublishBatchDelivery(t *testing.T) {
	b := NewBroker()
	var whole, part [][]Sample
	none := 0
	if _, err := b.Subscribe("org/unibo/#", func(batch []Sample) { whole = append(whole, batch) }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("org/+/cluster/+/node/+/plugin/+/chnl/data/core/+/instret", func(batch []Sample) {
		part = append(part, append([]Sample(nil), batch...))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("org/acme/#", func([]Sample) { none++ }); err != nil {
		t.Fatal(err)
	}
	batch := []Sample{
		{Tags: Tags{Node: "mc01", Plugin: "pmu_pub", Core: 0, Metric: "instret"}, T: 1, V: 10},
		{Tags: Tags{Node: "mc01", Plugin: "pmu_pub", Core: 0, Metric: "cycle"}, T: 1, V: 11},
		{Tags: Tags{Node: "mc01", Plugin: "pmu_pub", Core: 1, Metric: "instret"}, T: 1, V: 12},
		{Tags: Tags{Node: "mc01", Plugin: "dstat_pub", Core: -1, Metric: "load_avg.1m"}, T: 1, V: 13},
	}
	if err := b.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	if len(whole) != 1 || len(whole[0]) != len(batch) || &whole[0][0] != &batch[0] {
		t.Errorf("full match did not receive the caller's slice: %+v", whole)
	}
	want := []Sample{batch[0], batch[2]}
	if len(part) != 1 || !reflect.DeepEqual(part[0], want) {
		t.Errorf("partial match = %+v, want %+v", part, want)
	}
	if none != 0 {
		t.Errorf("non-matching subscriber called %d times", none)
	}
	if b.Published() != uint64(len(batch)) {
		t.Errorf("published = %d, want %d", b.Published(), len(batch))
	}
}

func TestPublishBatch(t *testing.T) {
	b := NewBroker()
	db := NewTSDB()
	if _, err := db.Attach(b); err != nil {
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
	// Empty batch is a no-op.
	if err := b.PublishBatch(nil); err != nil {
		t.Fatal(err)
	}
	if b.Published() != 4 {
		t.Errorf("empty batch counted")
	}
}

// TestPublishSampleValidation: a bad sample anywhere in a batch rejects
// the batch before any normalization or dispatch.
func TestPublishSampleValidation(t *testing.T) {
	b := NewBroker()
	db := NewTSDB()
	if _, err := db.Attach(b); err != nil {
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
		t.Error("bad batch partially dispatched")
	}
	if batch[0].Tags.Org != "" || batch[0].Tags.Cluster != "" {
		t.Errorf("rejected batch was normalized: %+v", batch[0].Tags)
	}
	if b.Published() != 0 {
		t.Errorf("published = %d", b.Published())
	}
}

// TestBrokerPublishUnsubscribeRace is the regression test for the
// sub.active data race: dispatch reads the flag lock-free while another
// goroutine unsubscribes. Run with -race.
func TestBrokerPublishUnsubscribeRace(t *testing.T) {
	b := NewBroker()
	var mu sync.Mutex
	seen := 0
	subs := make([]*Subscription, 64)
	for i := range subs {
		var err error
		subs[i], err = b.Subscribe("org/#", func(batch []Sample) {
			mu.Lock()
			seen += len(batch)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	publish := func(i int) {
		_ = b.PublishBatch([]Sample{{Tags: Tags{Node: "n", Plugin: "p", Metric: "m"}, T: float64(i)}})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			publish(i)
		}
	}()
	go func() {
		defer wg.Done()
		for _, sub := range subs {
			b.Unsubscribe(sub)
		}
	}()
	wg.Wait()
	// After all unsubscribes nothing is delivered.
	mu.Lock()
	final := seen
	mu.Unlock()
	publish(1000)
	mu.Lock()
	defer mu.Unlock()
	if seen != final {
		t.Error("unsubscribed callback fired")
	}
}

func TestConcurrentSubscribePublish(t *testing.T) {
	b := NewBroker()
	db := NewTSDB()
	if _, err := db.Attach(b); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := fmt.Sprintf("mc%02d", w)
			for i := 0; i < 100; i++ {
				batch := []Sample{
					{Tags: Tags{Node: node, Plugin: "pmu_pub", Core: 0, Metric: "instret"}, T: float64(i), V: float64(i)},
					{Tags: Tags{Node: node, Plugin: "pmu_pub", Core: 1, Metric: "instret"}, T: float64(i), V: float64(i)},
				}
				if err := b.PublishBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Churning subscriptions while batches flow.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sub, err := b.Subscribe("org/#", func([]Sample) {})
			if err != nil {
				t.Error(err)
				return
			}
			b.Unsubscribe(sub)
		}
	}()
	wg.Wait()
	if db.SeriesCount() != 8 {
		t.Errorf("series = %d, want 8", db.SeriesCount())
	}
	if got := b.Published(); got != 800 {
		t.Errorf("published = %d, want 800", got)
	}
}

// TestSubscribeSamplesValidation: a rejected Subscribe call on a sample
// pattern returns no subscription and leaves none registered behind.
func TestSubscribeSamplesValidation(t *testing.T) {
	b := NewBroker()
	for _, c := range []struct {
		pattern string
		fn      func([]Sample)
		what    string
	}{
		{"", func([]Sample) {}, "empty pattern"},
		{"a/#/b", func([]Sample) {}, "non-final #"},
		{"org/#", nil, "nil callback"},
	} {
		if sub, err := b.Subscribe(c.pattern, c.fn); err == nil || sub != nil {
			t.Errorf("%s accepted: sub=%v err=%v", c.what, sub, err)
		}
	}
	if n := len(b.snapshot()); n != 0 {
		t.Errorf("rejected subscriptions registered %d subscribers", n)
	}
}

// Property: matchTagLevels agrees with the string matcher for random
// metric shapes and cores.
func TestMatchTagLevelsQuickProperty(t *testing.T) {
	prop := func(core uint8, metricParts []uint8, hashAt uint8) bool {
		tags := Tags{Org: "o", Cluster: "c", Node: "n", Plugin: "p", Core: int(core%16) - 1, Metric: "m"}
		if len(metricParts) > 0 {
			parts := make([]string, 0, len(metricParts)%4+1)
			for i := 0; i < len(metricParts)%4+1 && i < len(metricParts); i++ {
				parts = append(parts, string(rune('a'+metricParts[i]%3)))
			}
			if len(parts) > 0 {
				tags.Metric = strings.Join(parts, "/")
			}
		}
		topic := tags.Topic()
		levels := strings.Split(topic, "/")
		// Build a pattern from the topic: replace some levels with '+',
		// optionally truncate with '#'.
		pat := make([]string, len(levels))
		copy(pat, levels)
		for i := range pat {
			if (int(hashAt)+i)%3 == 0 {
				pat[i] = "+"
			}
		}
		if n := int(hashAt) % (len(pat) + 1); n < len(pat) {
			pat = append(pat[:n:n], "#")
		}
		pattern := strings.Join(pat, "/")
		want, err := MatchTopic(pattern, topic)
		if err != nil {
			return false
		}
		pl, err := validatePattern(pattern)
		if err != nil {
			return false
		}
		return matchTagLevels(pl, tags) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
