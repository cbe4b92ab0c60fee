package fleet

import (
	"montecimone/internal/campaign"
	"montecimone/internal/examon"
)

// FederationPlugin is the Plugin tag on every federated sample.
const FederationPlugin = "fleet"

// Federated metric names: one series per (cluster, metric), one point per
// campaign routed to that cluster, stamped at the campaign's fleet-level
// arrival time.
const (
	MetricJobs       = "campaign_jobs"
	MetricCompleted  = "campaign_completed"
	MetricFailed     = "campaign_failed"
	MetricMakespanS  = "campaign_makespan_s"
	MetricUtilPct    = "campaign_util_pct"
	MetricPeakQueue  = "campaign_peak_queue"
	MetricNodeSecond = "campaign_node_seconds"
)

// federatedMetrics lists every metric Ingest publishes, in series-key
// order, so consumers can size queries and tests can enumerate coverage.
func federatedMetrics() []string {
	return []string{MetricCompleted, MetricFailed, MetricJobs,
		MetricMakespanS, MetricNodeSecond, MetricPeakQueue, MetricUtilPct}
}

// Federation is the fleet-level telemetry store: per-campaign summary
// samples from every cluster land in one shared ExaMon storage engine,
// tagged with the fleet org and the source cluster so federated queries
// can select one cluster's series (the new Filter.Org/Cluster
// dimensions). N fleet workers ingest their clusters' results in
// wall-clock parallel; the MemStore locks every write, so they need no
// coordination beyond it.
//
// Series identity in ExaMon is (Node, Plugin, Core, Metric) with
// Org/Cluster as scoping tags, so federated series use the cluster ID as
// the Node tag too: distinct clusters get distinct series even where the
// identity dimensions would otherwise collide.
type Federation struct {
	org   string
	store *examon.MemStore
}

// NewFederation builds an empty federation scoped to the org.
func NewFederation(org string) *Federation {
	if org == "" {
		org = DefaultOrg
	}
	return &Federation{org: org, store: examon.NewMemStore()}
}

// Ingest publishes one routed campaign's summary samples. Safe for
// concurrent use — each fleet worker ingests as its campaigns finish.
// The sample timestamp is the campaign's fleet-level arrival instant,
// fixed at routing time, so the stored points are independent of which
// worker ingested first.
func (fd *Federation) Ingest(a Assignment, res *campaign.Result) {
	tag := func(metric string) examon.Tags {
		return examon.Tags{
			Org:     fd.org,
			Cluster: a.ClusterID,
			Node:    a.ClusterID,
			Plugin:  FederationPlugin,
			Core:    -1,
			Metric:  metric,
		}
	}
	var nodeSeconds float64
	for _, j := range res.Jobs {
		if j.StartS >= 0 && j.EndS > j.StartS {
			nodeSeconds += float64(j.Nodes) * (j.EndS - j.StartS)
		}
	}
	fd.store.InsertBatch([]examon.Sample{
		{Tags: tag(MetricJobs), T: a.ArriveS, V: float64(len(res.Jobs))},
		{Tags: tag(MetricCompleted), T: a.ArriveS, V: float64(res.Completed)},
		{Tags: tag(MetricFailed), T: a.ArriveS, V: float64(res.Failed)},
		{Tags: tag(MetricMakespanS), T: a.ArriveS, V: res.MakespanS},
		{Tags: tag(MetricUtilPct), T: a.ArriveS, V: res.UtilizationPct},
		{Tags: tag(MetricPeakQueue), T: a.ArriveS, V: float64(res.PeakQueueDepth)},
		{Tags: tag(MetricNodeSecond), T: a.ArriveS, V: nodeSeconds},
	})
}

// Query runs a federated query. Ingest order across clusters depends on
// worker scheduling, so callers rendering reports must aggregate or sort
// the result — never print it in storage order.
func (fd *Federation) Query(f examon.Filter) []examon.Series {
	return fd.store.Query(f)
}

// SeriesCount reports the stored federated series.
func (fd *Federation) SeriesCount() int { return fd.store.SeriesCount() }

// ClusterTotal sums one metric's points for one cluster — the
// order-independent aggregate the fleet report renders.
func (fd *Federation) ClusterTotal(clusterID, metric string) float64 {
	var total float64
	for _, s := range fd.store.Query(examon.Filter{Org: fd.org, Cluster: clusterID, Metric: metric}) {
		for _, p := range s.Points {
			total += p.V
		}
	}
	return total
}
