// Package examon reimplements the ExaMon operational-data-analytics stack
// (Bartolini et al.) that the paper ports to Monte Cimone. Sampling
// plugins on the compute nodes (pmu_pub, stats_pub and power_pub) register
// one series handle per stream with an MQTT-style broker at construction
// and publish each tick's values through those handles; the broker feeds
// every accepted sample into one in-memory time-series store (MemStore)
// on the master node, in place of the deployment's KairosDB. Reads go
// through the store: a RESTful query API over HTTP, the aggregating query
// layer, the anomaly detector and the dashboard aggregations behind the
// paper's Fig. 5 heatmaps and Fig. 6 thermal view.
package examon

import (
	"fmt"
	"sync/atomic"
)

// Broker is the MQTT-flavoured transport between the sampling plugins and
// the store, feeding every accepted sample to the one store attached with
// MemStore.Attach. Publishers take one of two entry points into the same
// store insert code: Register a series handle once and Publish values
// through it every tick (the plugins and the power plane), or hand over
// tag-keyed Sample batches with PublishBatch. Delivery is synchronous, so
// samples are stored before the publish call returns. Safe for concurrent
// use.
type Broker struct {
	store     atomic.Pointer[MemStore]
	published atomic.Uint64
}

// SeriesHandle is one registered stream: its tags, validated and
// defaulted once by Broker.Register, bound to that broker. Its series in
// the store is resolved on its first publish and reused afterwards, so a
// publish neither checks nor hashes tags. A handle may be shared between
// goroutines.
type SeriesHandle struct {
	broker *Broker
	tags   Tags
	series *memSeries // guarded by the store's lock; nil until first stored
}

// NewBroker returns a broker with no store attached.
func NewBroker() *Broker {
	return &Broker{}
}

// Attach makes st the store the broker feeds: every batch published with
// Publish or PublishBatch afterwards lands in st as one batched insert. A
// broker feeds exactly one store, so attaching to a broker that already
// has one fails, even when it is st itself; the handles registered with
// the broker therefore always resolve their series in st. Attach returns
// st.
func (st *MemStore) Attach(b *Broker) (*MemStore, error) {
	if st == nil {
		return nil, fmt.Errorf("examon: attach needs a store")
	}
	if b == nil {
		return nil, fmt.Errorf("examon: attach needs a broker")
	}
	if !b.store.CompareAndSwap(nil, st) {
		return nil, fmt.Errorf("examon: broker already feeds a store")
	}
	return st, nil
}

// Register validates tags and fills empty Org/Cluster with the deployment
// defaults, once, and returns a handle for publishing to that stream
// through b. It rejects exactly the tags PublishBatch rejects. Registering
// creates no series: a handle's series appears in the store on its first
// publish, so series are created in publish order and a handle that never
// publishes leaves no trace.
func (b *Broker) Register(tags Tags) (*SeriesHandle, error) {
	if err := checkSampleTags(&tags); err != nil {
		return nil, err
	}
	defaultSampleTags(&tags)
	return &SeriesHandle{broker: b, tags: tags}, nil
}

// Publish stores one sample per handle, values[i] under hs[i], all at
// time t, as one batch under a single store lock. Every handle must come
// from b.Register; a foreign or nil handle, or a length mismatch, rejects
// the whole batch before anything is stored or counted. Accepted samples
// are counted even when no store is attached.
func (b *Broker) Publish(t float64, hs []*SeriesHandle, values []float64) error {
	if len(hs) != len(values) {
		return fmt.Errorf("examon: publish has %d handles but %d values", len(hs), len(values))
	}
	for _, h := range hs {
		if h == nil || h.broker != b {
			return fmt.Errorf("examon: publish through a handle not registered with this broker")
		}
	}
	if len(hs) == 0 {
		return nil
	}
	b.published.Add(uint64(len(hs)))
	if st := b.store.Load(); st != nil {
		st.insertHandles(t, hs, values)
	}
	return nil
}

// PublishBatch validates a batch of tag-keyed samples and stores it in the
// attached store, the entry point for publishers that hold no handles
// (tests, benchmarks, ad-hoc producers). Empty Org/Cluster tags are
// normalized to the deployment defaults in place; an invalid sample
// anywhere rejects the whole batch before any normalization or storage.
// Accepted samples are counted even when no store is attached. The store
// copies the samples, so the caller may reuse the batch slice after
// return.
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
	if st := b.store.Load(); st != nil {
		st.InsertBatch(batch)
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

// CheckTagLevel returns an error when s cannot be one topic level: it
// contains '/', '+' or '#'. Org, Cluster, Node and Plugin tags must pass
// it; campaign specs check their scope tags with it before any sample is
// published.
func CheckTagLevel(s string) error {
	if hasReserved(s, true) {
		return fmt.Errorf("%q contains a reserved topic character (/, + or #)", s)
	}
	return nil
}

// hasReserved reports whether s contains topic-reserved characters: the
// wildcards always, '/' only when noSlash is set. A manual byte scan — it
// runs per tag for every Register and for every sample of a PublishBatch,
// where strings.ContainsAny is measurably slower.
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
