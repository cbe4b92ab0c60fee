// Package examon reimplements the ExaMon operational-data-analytics stack
// (Bartolini et al.) that the paper ports to Monte Cimone. Sampling
// plugins on the compute nodes (pmu_pub, stats_pub and power_pub) publish
// typed sample batches to an MQTT-style broker, which feeds every accepted
// batch into one in-memory time-series store (MemStore) on the master
// node, in place of the deployment's KairosDB. Reads go through the
// store: a RESTful query API over HTTP, the aggregating query layer, the
// anomaly detector and the dashboard aggregations behind the paper's
// Fig. 5 heatmaps and Fig. 6 thermal view.
package examon

import (
	"fmt"
	"sync/atomic"
)

// Broker is the MQTT-flavoured transport between the sampling plugins and
// the store: publishers hand it batches (PublishBatch), and it feeds each
// accepted batch to the one store attached with MemStore.Attach. Delivery
// is synchronous, so a batch is stored before PublishBatch returns. Safe
// for concurrent use.
type Broker struct {
	store     atomic.Pointer[MemStore]
	published atomic.Uint64
}

// NewBroker returns a broker with no store attached.
func NewBroker() *Broker {
	return &Broker{}
}

// Attach makes st the store the broker feeds: every batch published with
// PublishBatch afterwards lands in st as one batched insert. A broker
// feeds exactly one store, so attaching to a broker that already has one
// fails, even when it is st itself. Attach returns st.
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

// PublishBatch validates a batch and stores it in the attached store — the
// sampling plugins publish one batch per node per tick. Empty Org/Cluster
// tags are normalized to the deployment defaults in place; an invalid
// sample anywhere rejects the whole batch before any normalization or
// storage. Accepted samples are counted even when no store is attached.
// The store copies the samples, so the caller may reuse the batch slice
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
