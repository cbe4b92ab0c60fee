package examon

// Topic and payload formats follow Table II of the paper:
//
//	pmu_pub:   org/<org>/cluster/<cluster>/node/<hostname>/plugin/pmu_pub/
//	           chnl/data/core/<id>/<metric_name>
//	stats_pub: org/<org>/cluster/<cluster>/node/<hostname>/plugin/dstat_pub/
//	           chnl/data/<metric_name>
//
// On the deployed MQTT broker each payload is "<value>;<timestamp>"; here a
// Sample carries the tag set and the (timestamp, value) pair typed, and no
// topic string is ever rendered.

// Default identifiers for the Monte Cimone deployment.
const (
	DefaultOrg     = "unibo"
	DefaultCluster = "montecimone"
)

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
