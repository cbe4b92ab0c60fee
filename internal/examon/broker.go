// Package examon reimplements the ExaMon operational-data-analytics stack
// (Bartolini et al.) that the paper ports to Monte Cimone: an MQTT-style
// broker for the transport layer, the pmu_pub and stats_pub sampling
// plugins installed on the compute nodes, one in-memory time-series store
// (MemStore) on the master node, a RESTful query API over HTTP, and the
// dashboard aggregations behind the paper's Fig. 5 heatmaps and Fig. 6
// thermal view.
package examon

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Broker is an MQTT-flavoured topic-based publish/subscribe hub for
// samples: publishers hand it batches (PublishBatch) and subscribers
// register a batch callback for a topic pattern (Subscribe). Patterns are
// matched against each sample's tag set directly, so no Table II topic
// string is rendered on the way. Dispatch is synchronous and deterministic:
// subscribers run in subscription order. Safe for concurrent use.
type Broker struct {
	mu        sync.Mutex
	subs      []*Subscription // copy-on-write: never mutated in place
	published atomic.Uint64
}

// Subscription is a registered topic pattern and its batch callback.
type Subscription struct {
	pattern []string
	fn      func([]Sample)
	// active is read during lock-free dispatch and written by
	// Unsubscribe, so it must be atomic (a plain bool here is a data
	// race between PublishBatch and Unsubscribe).
	active atomic.Bool
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{}
}

// Subscribe registers a batch callback for an MQTT-style pattern ('+'
// matches one level, '#' matches any suffix and must be last), matched
// against the Table II topic levels of each published sample. A batch
// whose samples all match is delivered as the publisher's slice itself
// (storage turns this into a single batched insert), a partially matching
// batch as its matching samples in order, and a batch with no match not
// at all. The callback must not retain the slice.
func (b *Broker) Subscribe(pattern string, fn func([]Sample)) (*Subscription, error) {
	if fn == nil {
		return nil, fmt.Errorf("examon: nil subscription callback")
	}
	levels, err := validatePattern(pattern)
	if err != nil {
		return nil, err
	}
	sub := &Subscription{pattern: levels, fn: fn}
	sub.active.Store(true)
	b.mu.Lock()
	// Full slice expression forces append to copy, so concurrent readers
	// of the old slice never observe the mutation.
	b.subs = append(b.subs[:len(b.subs):len(b.subs)], sub)
	b.mu.Unlock()
	return sub, nil
}

// Unsubscribe deactivates a subscription.
func (b *Broker) Unsubscribe(sub *Subscription) {
	if sub == nil {
		return
	}
	sub.active.Store(false)
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.subs {
		if s == sub {
			next := make([]*Subscription, 0, len(b.subs)-1)
			next = append(next, b.subs[:i]...)
			b.subs = append(next, b.subs[i+1:]...)
			break
		}
	}
}

// snapshot returns the current subscription list; the slice is immutable.
func (b *Broker) snapshot() []*Subscription {
	b.mu.Lock()
	subs := b.subs
	b.mu.Unlock()
	return subs
}

// PublishBatch delivers a batch of samples with a single subscription
// snapshot — the sampling plugins publish one batch per node per tick.
// Empty Org/Cluster tags are normalized to the deployment defaults in
// place; an invalid sample anywhere rejects the whole batch before any
// normalization or dispatch. The batch slice may be reused by the caller
// after return.
func (b *Broker) PublishBatch(batch []Sample) error {
	// Validate without mutating first, so a rejected batch hands the
	// caller's slice back untouched.
	for i := range batch {
		if err := checkSampleTags(&batch[i].Tags); err != nil {
			return err
		}
	}
	for i := range batch {
		defaultSampleTags(&batch[i].Tags)
	}
	if len(batch) == 0 {
		return nil
	}
	b.published.Add(uint64(len(batch)))
	for _, sub := range b.snapshot() {
		if !sub.active.Load() {
			continue
		}
		matches := 0
		for i := range batch {
			if matchTagLevels(sub.pattern, batch[i].Tags) {
				matches++
			}
		}
		switch {
		case matches == len(batch):
			sub.fn(batch)
		case matches > 0:
			filtered := make([]Sample, 0, matches)
			for i := range batch {
				if matchTagLevels(sub.pattern, batch[i].Tags) {
					filtered = append(filtered, batch[i])
				}
			}
			sub.fn(filtered)
		}
	}
	return nil
}

// Published returns the number of samples accepted so far.
func (b *Broker) Published() uint64 {
	return b.published.Load()
}

// defaultSampleTags fills empty Org/Cluster with the deployment defaults.
func defaultSampleTags(t *Tags) {
	if t.Org == "" {
		t.Org = DefaultOrg
	}
	if t.Cluster == "" {
		t.Cluster = DefaultCluster
	}
}

// checkSampleTags validates without mutating.
func checkSampleTags(t *Tags) error {
	if t.Node == "" || t.Plugin == "" || t.Metric == "" {
		return fmt.Errorf("examon: sample tags need node, plugin and metric, got %+v", *t)
	}
	// Each non-metric tag is exactly one topic level; the metric may span
	// several (nested names contain '/').
	if hasReserved(t.Org, true) || hasReserved(t.Cluster, true) ||
		hasReserved(t.Node, true) || hasReserved(t.Plugin, true) {
		return fmt.Errorf("examon: sample tags contain reserved characters: %+v", *t)
	}
	if hasReserved(t.Metric, false) {
		return fmt.Errorf("examon: sample metric %q contains wildcard characters", t.Metric)
	}
	return nil
}

// hasReserved reports whether s contains topic-reserved characters: the
// wildcards always, '/' only when noSlash is set. A manual byte scan — this
// runs per tag per published sample, where strings.ContainsAny is
// measurably slower.
func hasReserved(s string, noSlash bool) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '+', '#':
			return true
		case '/':
			if noSlash {
				return true
			}
		}
	}
	return false
}

func validateTopic(topic string) error {
	if topic == "" {
		return fmt.Errorf("examon: empty topic")
	}
	if strings.ContainsAny(topic, "+#") {
		return fmt.Errorf("examon: topic %q contains wildcard characters", topic)
	}
	return nil
}

func validatePattern(pattern string) ([]string, error) {
	if pattern == "" {
		return nil, fmt.Errorf("examon: empty pattern")
	}
	levels := strings.Split(pattern, "/")
	for i, l := range levels {
		switch l {
		case "#":
			if i != len(levels)-1 {
				return nil, fmt.Errorf("examon: pattern %q: '#' must be the final level", pattern)
			}
		case "+":
			// single-level wildcard: fine anywhere
		default:
			if strings.ContainsAny(l, "+#") {
				return nil, fmt.Errorf("examon: pattern %q: wildcard inside level %q", pattern, l)
			}
		}
	}
	return levels, nil
}

// MatchTopic reports whether an MQTT-style pattern matches a topic.
func MatchTopic(pattern, topic string) (bool, error) {
	levels, err := validatePattern(pattern)
	if err != nil {
		return false, err
	}
	if err := validateTopic(topic); err != nil {
		return false, err
	}
	return matchLevels(levels, strings.Split(topic, "/")), nil
}

func matchLevels(pattern, topic []string) bool {
	for i, p := range pattern {
		if p == "#" {
			return true
		}
		if i >= len(topic) {
			return false
		}
		if p != "+" && p != topic[i] {
			return false
		}
	}
	return len(pattern) == len(topic)
}

// matchTagLevels matches a pattern against the conceptual topic levels of a
// tag set without rendering the topic string — the broker's typed dispatch
// stays allocation-free this way. It is equivalent to
// matchLevels(pattern, strings.Split(tags.Topic(), "/")).
func matchTagLevels(pattern []string, t Tags) bool {
	pi := 0
	hash := false
	accept := func(level string) bool {
		if hash {
			return true
		}
		if pi >= len(pattern) {
			return false
		}
		p := pattern[pi]
		if p == "#" {
			hash = true
			return true
		}
		pi++
		return p == "+" || p == level
	}
	if !accept("org") || !accept(t.Org) || !accept("cluster") || !accept(t.Cluster) ||
		!accept("node") || !accept(t.Node) || !accept("plugin") || !accept(t.Plugin) ||
		!accept("chnl") || !accept("data") {
		return false
	}
	if t.Core >= 0 {
		if !accept("core") {
			return false
		}
		if !hash {
			if pi >= len(pattern) {
				return false
			}
			p := pattern[pi]
			if p == "#" {
				return true
			}
			pi++
			if p != "+" && !eqInt(p, t.Core) {
				return false
			}
		}
	}
	rest := t.Metric
	for rest != "" {
		level, tail, found := strings.Cut(rest, "/")
		if !accept(level) {
			return false
		}
		if !found {
			break
		}
		rest = tail
	}
	return hash || pi == len(pattern) ||
		(pi == len(pattern)-1 && pattern[pi] == "#")
}

// eqInt reports whether s is the decimal rendering of the non-negative v,
// without allocating.
func eqInt(s string, v int) bool {
	if s == "" {
		return false
	}
	for i := len(s) - 1; i >= 0; i-- {
		if byte('0'+v%10) != s[i] {
			return false
		}
		v /= 10
		if v == 0 {
			return i == 0 && (len(s) == 1 || s[0] != '0')
		}
	}
	return false
}
