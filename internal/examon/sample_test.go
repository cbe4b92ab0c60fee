package examon

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTagsTopicRoundTrip(t *testing.T) {
	for _, tags := range []Tags{
		{Org: "unibo", Cluster: "montecimone", Node: "mc03", Plugin: "pmu_pub", Core: 2, Metric: "instret"},
		{Org: "unibo", Cluster: "montecimone", Node: "mc03", Plugin: "pmu_pub", Core: 12, Metric: "cycle"},
		{Org: "o", Cluster: "c", Node: "n", Plugin: "dstat_pub", Core: -1, Metric: "load_avg.1m"},
		{Org: "o", Cluster: "c", Node: "n", Plugin: "dstat_pub", Core: -1, Metric: "nested/metric/name"},
	} {
		got, err := ParseTopic(tags.Topic())
		if err != nil {
			t.Errorf("ParseTopic(%q): %v", tags.Topic(), err)
			continue
		}
		if got != tags {
			t.Errorf("round trip = %+v, want %+v", got, tags)
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

func TestPublishSampleTypedAndStringSubscribers(t *testing.T) {
	b := NewBroker()
	var typed []Sample
	var raw []string
	if _, err := b.SubscribeSamples("org/unibo/#", func(s Sample) { typed = append(typed, s) }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("org/unibo/#", func(topic, payload string) {
		raw = append(raw, topic+"="+payload)
	}); err != nil {
		t.Fatal(err)
	}
	s := Sample{Tags: Tags{Org: "unibo", Cluster: "mc", Node: "mc01", Plugin: "pmu_pub", Core: 1, Metric: "instret"}, T: 2.5, V: 1000}
	if err := b.PublishSample(s); err != nil {
		t.Fatal(err)
	}
	if len(typed) != 1 || typed[0] != s {
		t.Errorf("typed delivery = %+v", typed)
	}
	wantTopic := "org/unibo/cluster/mc/node/mc01/plugin/pmu_pub/chnl/data/core/1/instret"
	if len(raw) != 1 || raw[0] != wantTopic+"=1000;2.5" {
		t.Errorf("string delivery = %v", raw)
	}
	if b.Published() != 1 {
		t.Errorf("published = %d", b.Published())
	}
	// Non-matching typed subscriber stays quiet.
	other := Sample{Tags: Tags{Org: "acme", Cluster: "c", Node: "n", Plugin: "p", Core: -1, Metric: "m"}}
	if err := b.PublishSample(other); err != nil {
		t.Fatal(err)
	}
	if len(typed) != 1 {
		t.Errorf("typed subscriber got non-matching sample")
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

func TestPublishSampleValidation(t *testing.T) {
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
		if err := b.PublishSample(s); err == nil {
			t.Errorf("sample %+v accepted", s)
		}
	}
	// Nested metrics keep their slashes.
	if err := b.PublishSample(Sample{Tags: Tags{Node: "n", Plugin: "p", Metric: "a/b"}}); err != nil {
		t.Errorf("nested metric rejected: %v", err)
	}
	// A bad sample anywhere in a batch rejects the batch before any
	// dispatch.
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
}

// TestStringPublishShimFeedsTypedSubscribers pins the compat path: a
// legacy string publish of a data topic is lifted into a Sample for typed
// subscribers, and non-data topics stay invisible to them.
func TestStringPublishShimFeedsTypedSubscribers(t *testing.T) {
	b := NewBroker()
	var typed []Sample
	var raw int
	if _, err := b.SubscribeSamples("#", func(s Sample) { typed = append(typed, s) }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("#", func(string, string) { raw++ }); err != nil {
		t.Fatal(err)
	}
	topic := PMUTopic("unibo", "mc", "mc01", 0, "cycle")
	if err := b.Publish(topic, FormatPayload(123, 4.5)); err != nil {
		t.Fatal(err)
	}
	want := Sample{Tags: Tags{Org: "unibo", Cluster: "mc", Node: "mc01", Plugin: "pmu_pub", Core: 0, Metric: "cycle"}, T: 4.5, V: 123}
	if len(typed) != 1 || typed[0] != want {
		t.Errorf("shimmed sample = %+v, want %+v", typed, want)
	}
	// Non-data topics and unparsable payloads reach only string subs.
	if err := b.Publish("control/reboot", "now"); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(topic, "not-a-payload"); err != nil {
		t.Fatal(err)
	}
	if len(typed) != 1 {
		t.Errorf("typed subscriber saw non-data traffic: %+v", typed)
	}
	if raw != 3 {
		t.Errorf("string subscriber saw %d messages, want 3", raw)
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
		subs[i], err = b.Subscribe("org/#", func(string, string) {
			mu.Lock()
			seen++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = b.Publish("org/unibo/x", "1;2")
			_ = b.PublishSample(Sample{Tags: Tags{Node: "n", Plugin: "p", Metric: "m"}, T: float64(i)})
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
	_ = b.Publish("org/unibo/x", "1;2")
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
			sub, err := b.SubscribeSamples("org/#", func(Sample) {})
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

func TestSubscribeSamplesValidation(t *testing.T) {
	b := NewBroker()
	if _, err := b.SubscribeSamples("", func(Sample) {}); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := b.SubscribeSamples("a/#/b", func(Sample) {}); err == nil {
		t.Error("non-final # accepted")
	}
	if _, err := b.SubscribeSamples("org/#", nil); err == nil {
		t.Error("nil callback accepted")
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
