package examon

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPublishSubscribe(t *testing.T) {
	b := NewBroker()
	var got []string
	sub, err := b.Subscribe("org/unibo/#", func(batch []Sample) {
		for _, s := range batch {
			got = append(got, s.Tags.Topic())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	unibo := Sample{Tags: Tags{Org: "unibo", Node: "n", Plugin: "p", Core: -1, Metric: "x"}, T: 2, V: 1}
	other := Sample{Tags: Tags{Org: "other", Node: "n", Plugin: "p", Core: -1, Metric: "y"}, T: 4, V: 3}
	if err := b.PublishBatch([]Sample{unibo}); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishBatch([]Sample{other}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.HasPrefix(got[0], "org/unibo/") {
		t.Errorf("got = %v", got)
	}
	b.Unsubscribe(sub)
	if err := b.PublishBatch([]Sample{unibo}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Error("unsubscribed callback fired")
	}
	if b.Published() != 3 {
		t.Errorf("published = %d", b.Published())
	}
}

func TestSubscribeValidation(t *testing.T) {
	b := NewBroker()
	if _, err := b.Subscribe("", func([]Sample) {}); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := b.Subscribe("a/#/b", func([]Sample) {}); err == nil {
		t.Error("non-final # accepted")
	}
	if _, err := b.Subscribe("a/b+c", func([]Sample) {}); err == nil {
		t.Error("embedded wildcard accepted")
	}
	if _, err := b.Subscribe("a/+", nil); err == nil {
		t.Error("nil callback accepted")
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

func TestMatchTopic(t *testing.T) {
	tests := []struct {
		pattern, topic string
		want           bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b", false},
		{"a/b", "a/b/c", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"a/#", "a/b/c/d", true},
		{"a/#", "a", true}, // MQTT: '#' also matches the parent level itself
		{"+/+", "a/b", true},
		{"#", "anything/at/all", true},
		{"org/+/cluster/+/node/+/plugin/pmu_pub/#", "org/unibo/cluster/montecimone/node/mc01/plugin/pmu_pub/chnl/data/core/0/instret", true},
		{"org/+/cluster/+/node/+/plugin/pmu_pub/#", "org/unibo/cluster/montecimone/node/mc01/plugin/dstat_pub/chnl/data/load_avg.1m", false},
	}
	for _, tt := range tests {
		got, err := MatchTopic(tt.pattern, tt.topic)
		if err != nil {
			t.Errorf("MatchTopic(%q, %q): %v", tt.pattern, tt.topic, err)
			continue
		}
		if got != tt.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", tt.pattern, tt.topic, got, tt.want)
		}
	}
}

func TestMatchTopicExactProperty(t *testing.T) {
	// A topic always matches itself as a pattern (no wildcards).
	prop := func(parts []uint8) bool {
		if len(parts) == 0 {
			return true
		}
		levels := make([]string, 0, len(parts))
		for _, p := range parts {
			levels = append(levels, string(rune('a'+p%26)))
		}
		topic := strings.Join(levels, "/")
		ok, err := MatchTopic(topic, topic)
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableIITopicFormats(t *testing.T) {
	// Table II defines the exact topic shapes for both plugins.
	pmu := PMUTopic("unibo", "montecimone", "mc03", 2, "instret")
	want := "org/unibo/cluster/montecimone/node/mc03/plugin/pmu_pub/chnl/data/core/2/instret"
	if pmu != want {
		t.Errorf("pmu topic = %q, want %q", pmu, want)
	}
	stats := StatsTopic("unibo", "montecimone", "mc03", "load_avg.1m")
	want = "org/unibo/cluster/montecimone/node/mc03/plugin/dstat_pub/chnl/data/load_avg.1m"
	if stats != want {
		t.Errorf("stats topic = %q, want %q", stats, want)
	}
}
