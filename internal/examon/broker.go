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

// Broker is an MQTT-flavoured topic-based publish/subscribe hub.
// Dispatch is synchronous and deterministic: Publish and PublishSample
// deliver in subscription order, while PublishBatch services typed
// (sample/batch) subscribers in subscription order first and then string
// subscribers in subscription order, so each sample's Table II string
// rendering happens once regardless of how many string subscribers are
// attached. Safe for concurrent use.
//
// The broker has two publication paths. The typed path — PublishSample and
// PublishBatch — carries Sample values end to end and is the fast path the
// sampling plugins use (one batch per node per tick). The string Publish is
// a thin compatibility shim: data-schema topics are lifted into a Sample so
// typed subscribers see them too, while string subscribers always receive
// the raw topic/payload pair.
type Broker struct {
	mu        sync.Mutex
	subs      []*Subscription // copy-on-write: never mutated in place
	published atomic.Uint64
}

// Subscription is a registered topic-pattern callback. Exactly one of the
// string, sample or batch callbacks is set, depending on which Subscribe
// variant created it.
type Subscription struct {
	pattern []string
	fn      func(topic, payload string)
	sfn     func(Sample)
	bfn     func([]Sample)
	// active is read during lock-free dispatch and written by
	// Unsubscribe, so it must be atomic (a plain bool here is a data
	// race between Publish and Unsubscribe).
	active atomic.Bool
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{}
}

// Subscribe registers a string callback for an MQTT-style pattern ('+'
// matches one level, '#' matches any suffix and must be last). String
// subscribers receive every published message, typed or not; samples
// published through the typed path are rendered to the Table II encoding
// on demand for them.
func (b *Broker) Subscribe(pattern string, fn func(topic, payload string)) (*Subscription, error) {
	if fn == nil {
		return nil, fmt.Errorf("examon: nil subscription callback")
	}
	return b.subscribe(pattern, fn, nil, nil)
}

// SubscribeSamples registers a typed callback. Typed subscribers receive
// every Sample published through PublishSample/PublishBatch plus any string
// publish whose topic parses as a Table II data topic; non-data string
// traffic is invisible to them.
func (b *Broker) SubscribeSamples(pattern string, fn func(Sample)) (*Subscription, error) {
	if fn == nil {
		return nil, fmt.Errorf("examon: nil subscription callback")
	}
	return b.subscribe(pattern, nil, fn, nil)
}

// SubscribeSampleBatches registers a typed batch callback: a PublishBatch
// whose samples all match the pattern is delivered as one slice (storage
// backends turn this into a single batched insert), a partially-matching
// batch is delivered as the filtered sub-batch, and single samples arrive
// as length-1 batches. The callback must not retain the slice.
func (b *Broker) SubscribeSampleBatches(pattern string, fn func([]Sample)) (*Subscription, error) {
	if fn == nil {
		return nil, fmt.Errorf("examon: nil subscription callback")
	}
	return b.subscribe(pattern, nil, nil, fn)
}

func (b *Broker) subscribe(pattern string, fn func(topic, payload string), sfn func(Sample), bfn func([]Sample)) (*Subscription, error) {
	levels, err := validatePattern(pattern)
	if err != nil {
		return nil, err
	}
	sub := &Subscription{pattern: levels, fn: fn, sfn: sfn, bfn: bfn}
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

// Publish delivers a payload to every matching subscription. It is the
// compatibility shim over the typed path: when topic/payload parse as a
// Table II data message the broker lifts them into a Sample for typed
// subscribers, so legacy publishers interoperate with the v2 stack.
func (b *Broker) Publish(topic, payload string) error {
	if err := validateTopic(topic); err != nil {
		return err
	}
	b.published.Add(1)
	levels := strings.Split(topic, "/")
	var (
		sample Sample
		parsed bool
		failed bool
	)
	for _, sub := range b.snapshot() {
		if !sub.active.Load() || !matchLevels(sub.pattern, levels) {
			continue
		}
		if sub.fn != nil {
			sub.fn(topic, payload)
			continue
		}
		if !parsed && !failed {
			tags, err := ParseTopic(topic)
			if err == nil {
				var v, ts float64
				if v, ts, err = ParsePayload(payload); err == nil {
					sample = Sample{Tags: tags, T: ts, V: v}
					parsed = true
				}
			}
			failed = err != nil
		}
		if !parsed {
			continue
		}
		if sub.sfn != nil {
			sub.sfn(sample)
		} else {
			one := [1]Sample{sample}
			sub.bfn(one[:])
		}
	}
	return nil
}

// PublishSample delivers one typed sample. Typed subscribers receive it
// without any string rendering; string subscribers get the Table II
// topic/payload encoding, rendered at most once.
func (b *Broker) PublishSample(s Sample) error {
	if err := validateSampleTags(&s.Tags); err != nil {
		return err
	}
	b.published.Add(1)
	b.dispatchSample(s, b.snapshot())
	return nil
}

// PublishBatch delivers a batch of typed samples with a single
// subscription snapshot — the per-tick fast path for the sampling plugins,
// which emit one batch per node instead of one string publish per counter
// per core. A batch subscriber matching the whole batch receives the slice
// itself (no copies, no per-sample locking downstream). Empty Org/Cluster
// tags are normalized to the deployment defaults in place; an invalid
// sample anywhere rejects the whole batch before any normalization or
// dispatch. The batch slice may be reused by the caller after return.
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
	subs := b.snapshot()
	haveString := false
	for _, sub := range subs {
		if !sub.active.Load() {
			continue
		}
		switch {
		case sub.fn != nil:
			haveString = true // handled below, once per sample
		case sub.bfn != nil:
			matches := 0
			for i := range batch {
				if matchTagLevels(sub.pattern, batch[i].Tags) {
					matches++
				}
			}
			switch {
			case matches == len(batch):
				sub.bfn(batch)
			case matches > 0:
				filtered := make([]Sample, 0, matches)
				for i := range batch {
					if matchTagLevels(sub.pattern, batch[i].Tags) {
						filtered = append(filtered, batch[i])
					}
				}
				sub.bfn(filtered)
			}
		default:
			for i := range batch {
				if matchTagLevels(sub.pattern, batch[i].Tags) {
					sub.sfn(batch[i])
				}
			}
		}
	}
	if haveString {
		// Legacy string subscribers: render each sample's Table II
		// encoding once and fan it out, so the per-sample rendering cost
		// does not grow with the subscriber count.
		for i := range batch {
			s := batch[i]
			topic := s.Tags.Topic()
			levels := strings.Split(topic, "/")
			payload := FormatPayload(s.V, s.T)
			for _, sub := range subs {
				if sub.fn != nil && sub.active.Load() && matchLevels(sub.pattern, levels) {
					sub.fn(topic, payload)
				}
			}
		}
	}
	return nil
}

func (b *Broker) dispatchSample(s Sample, subs []*Subscription) {
	var (
		topic   string
		levels  []string
		payload string
	)
	for _, sub := range subs {
		if !sub.active.Load() {
			continue
		}
		if sub.sfn != nil || sub.bfn != nil {
			if matchTagLevels(sub.pattern, s.Tags) {
				if sub.sfn != nil {
					sub.sfn(s)
				} else {
					one := [1]Sample{s}
					sub.bfn(one[:])
				}
			}
			continue
		}
		// Legacy string subscriber: render the Table II encoding once.
		if topic == "" {
			topic = s.Tags.Topic()
			levels = strings.Split(topic, "/")
			payload = FormatPayload(s.V, s.T)
		}
		if matchLevels(sub.pattern, levels) {
			sub.fn(topic, payload)
		}
	}
}

// Published returns the number of messages accepted so far (each sample of
// a batch counts as one message).
func (b *Broker) Published() uint64 {
	return b.published.Load()
}

func validateSampleTags(t *Tags) error {
	if err := checkSampleTags(t); err != nil {
		return err
	}
	defaultSampleTags(t)
	return nil
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
