package examon

import "fmt"

// Topic and payload formats follow Table II of the paper:
//
//	pmu_pub:   org/<org>/cluster/<cluster>/node/<hostname>/plugin/pmu_pub/
//	           chnl/data/core/<id>/<metric_name>
//	stats_pub: org/<org>/cluster/<cluster>/node/<hostname>/plugin/dstat_pub/
//	           chnl/data/<metric_name>
//
// On the deployed MQTT broker each payload is "<value>;<timestamp>"; here a
// Sample carries the tag set and the (timestamp, value) pair typed, and
// Tags.Topic renders the topic when a caller needs it.

// Default identifiers for the Monte Cimone deployment.
const (
	DefaultOrg     = "unibo"
	DefaultCluster = "montecimone"
)

// PMUTopic builds a pmu_pub data topic for one core's metric.
func PMUTopic(org, cluster, hostname string, core int, metric string) string {
	return fmt.Sprintf("org/%s/cluster/%s/node/%s/plugin/pmu_pub/chnl/data/core/%d/%s",
		org, cluster, hostname, core, metric)
}

// StatsTopic builds a stats_pub (dstat_pub plugin name, per Table II) data
// topic for one node metric.
func StatsTopic(org, cluster, hostname, metric string) string {
	return fmt.Sprintf("org/%s/cluster/%s/node/%s/plugin/dstat_pub/chnl/data/%s",
		org, cluster, hostname, metric)
}

// Tags are the identifying dimensions of a data topic.
type Tags struct {
	// Org and Cluster scope the deployment.
	Org     string
	Cluster string
	// Node is the hostname.
	Node string
	// Plugin is "pmu_pub" or "dstat_pub".
	Plugin string
	// Core is the hart id for pmu_pub metrics, -1 for node-level metrics.
	Core int
	// Metric is the metric name (may contain '/' if nested).
	Metric string
}
