// Package fleet is the federated multi-cluster runner: a fleet spec
// declares N heterogeneous Monte Cimone-style clusters (node count, power
// budget, ambient temperature) and a stream of tenant
// campaigns, and a two-level scheduler routes each arriving campaign to
// the cluster with the best predicted power/thermal headroom and the
// shallowest queue — mirroring the wao-scheduler minimizepower scoring at
// the cluster-selection level, with the bestfit policy's bin-packing
// grounding (Erzin et al., arXiv:2106.09919) extended from nodes to
// clusters.
//
// Clusters share nothing but the meta-scheduler's routing decisions:
// every routing decision is taken deterministically at the campaign's
// arrival virtual timestamp from the meta-scheduler's predictive
// bookkeeping (demand estimates, not live probes), and each cluster then
// runs its own sim.Engine + sched + powerplane + examon stack on a worker
// goroutine. A fixed seed therefore renders a byte-identical fleet report
// and per-cluster event logs at any worker count — fleet throughput
// scales with workers because clusters are embarrassingly parallel, while
// each cluster's own event loop is serial.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"montecimone/internal/campaign"
	"montecimone/internal/sched"
	"montecimone/internal/thermal"
)

// ClusterSpec declares one cluster of the fleet.
type ClusterSpec struct {
	// ID names the cluster; it becomes the Cluster tag on every federated
	// telemetry sample and the namespace of the cluster's RNG streams.
	ID string `json:"id"`
	// Nodes is the cluster's partition size.
	Nodes int `json:"nodes"`
	// PowerBudgetW enables the cluster's power plane at this budget; the
	// meta-scheduler also scores the cluster's power headroom against it.
	PowerBudgetW float64 `json:"power_budget_w,omitempty"`
	// AmbientC is the site's machine-room inlet temperature (0 keeps the
	// paper's 25 °C). Hotter sites boot closer to the 107 °C trip and
	// score lower thermal headroom.
	AmbientC float64 `json:"ambient_c,omitempty"`
	// Policy is the cluster scheduler's policy (default easy).
	Policy string `json:"policy,omitempty"`
	// Mitigated applies the airflow mitigation before campaigns run.
	Mitigated bool `json:"mitigated,omitempty"`
}

// Submission is one tenant campaign arriving at the fleet front door: a
// campaign spec (the fleet schema embeds the campaign schema — any
// campaign spec body is a valid submission body) plus its fleet-level
// arrival time. The router fills the machine half of the embedded spec
// (nodes, policy, budget, ambient, telemetry tags) from the
// cluster it selects.
type Submission struct {
	// ArriveS is the fleet-level arrival instant in virtual seconds.
	ArriveS float64 `json:"arrive_s"`
	campaign.Spec
}

// Stream generates a tenant's submissions instead of listing them: Count
// arrivals of the Template campaign, with exponential interarrivals at
// RatePerHour drawn from the tenant's own named RNG stream
// ("fleet.tenant.<name>.arrival" — adding a tenant never perturbs another
// tenant's arrivals).
type Stream struct {
	RatePerHour float64       `json:"rate_per_hour"`
	Count       int           `json:"count"`
	Template    campaign.Spec `json:"template"`
}

// TenantSpec is one tenant's campaign stream.
type TenantSpec struct {
	// Name identifies the tenant in reports and RNG stream names.
	Name string `json:"name"`
	// Campaigns lists explicit submissions.
	Campaigns []Submission `json:"campaigns,omitempty"`
	// Stream generates submissions from a template.
	Stream *Stream `json:"stream,omitempty"`
}

// Spec is a declarative fleet: the clusters, the tenants and the seed.
type Spec struct {
	// Name labels the fleet in reports.
	Name string `json:"name"`
	// Seed drives every random draw in the fleet — tenant arrival
	// streams, per-cluster campaign seeds — through named sim.RNG streams.
	Seed int64 `json:"seed"`
	// Org scopes all federated telemetry (default "fleet").
	Org string `json:"org,omitempty"`
	// Clusters declares the fleet's machines.
	Clusters []ClusterSpec `json:"clusters"`
	// Tenants declares the campaign streams.
	Tenants []TenantSpec `json:"tenants"`
}

// DefaultOrg tags federated samples when the spec leaves Org empty.
const DefaultOrg = "fleet"

// Parse decodes a JSON fleet spec, rejecting unknown fields, and
// validates it.
func Parse(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("fleet: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load reads and parses a fleet spec file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("fleet: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("fleet: spec %s: %w", path, err)
	}
	return s, nil
}

// Validate checks the fleet shape: unique cluster IDs, known policies,
// and every submission feasible on at least one cluster.
func (s *Spec) Validate() error {
	if len(s.Clusters) == 0 {
		return fmt.Errorf("fleet: spec %q: needs at least one cluster", s.Name)
	}
	maxNodes := 0
	seen := make(map[string]bool, len(s.Clusters))
	for i, c := range s.Clusters {
		if c.ID == "" {
			return fmt.Errorf("fleet: spec %q: clusters[%d] needs an id", s.Name, i)
		}
		if seen[c.ID] {
			return fmt.Errorf("fleet: spec %q: duplicate cluster id %q", s.Name, c.ID)
		}
		seen[c.ID] = true
		if c.Nodes < 1 {
			return fmt.Errorf("fleet: spec %q: cluster %s: nodes must be positive, got %d", s.Name, c.ID, c.Nodes)
		}
		if c.Nodes > campaign.MaxSpecSize {
			return fmt.Errorf("fleet: spec %q: cluster %s: nodes must be at most %d, got %d",
				s.Name, c.ID, campaign.MaxSpecSize, c.Nodes)
		}
		if c.AmbientC < 0 || c.AmbientC >= thermal.TripTempC {
			return fmt.Errorf("fleet: spec %q: cluster %s: ambient %v °C outside [0,%v)", s.Name, c.ID, c.AmbientC, thermal.TripTempC)
		}
		if c.PowerBudgetW < 0 {
			return fmt.Errorf("fleet: spec %q: cluster %s: negative power budget", s.Name, c.ID)
		}
		if c.Policy != "" {
			if _, err := sched.PolicyByName(c.Policy); err != nil {
				return fmt.Errorf("fleet: spec %q: cluster %s: %w", s.Name, c.ID, err)
			}
		}
		if c.Nodes > maxNodes {
			maxNodes = c.Nodes
		}
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("fleet: spec %q: needs at least one tenant", s.Name)
	}
	seenTenant := make(map[string]bool, len(s.Tenants))
	for i, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("fleet: spec %q: tenants[%d] needs a name", s.Name, i)
		}
		if seenTenant[t.Name] {
			return fmt.Errorf("fleet: spec %q: duplicate tenant %q", s.Name, t.Name)
		}
		seenTenant[t.Name] = true
		if len(t.Campaigns) == 0 && t.Stream == nil {
			return fmt.Errorf("fleet: spec %q: tenant %s: needs campaigns or a stream", s.Name, t.Name)
		}
		for j, sub := range t.Campaigns {
			if sub.ArriveS < 0 {
				return fmt.Errorf("fleet: spec %q: tenant %s campaigns[%d]: negative arrive_s", s.Name, t.Name, j)
			}
			if err := validateSubmission(sub.Spec, maxNodes); err != nil {
				return fmt.Errorf("fleet: spec %q: tenant %s campaigns[%d]: %w", s.Name, t.Name, j, err)
			}
		}
		if st := t.Stream; st != nil {
			if st.RatePerHour <= 0 || st.Count <= 0 {
				return fmt.Errorf("fleet: spec %q: tenant %s: stream needs positive rate_per_hour and count", s.Name, t.Name)
			}
			if st.Count > campaign.MaxSpecSize {
				return fmt.Errorf("fleet: spec %q: tenant %s: stream count must be at most %d, got %d",
					s.Name, t.Name, campaign.MaxSpecSize, st.Count)
			}
			if err := validateSubmission(st.Template, maxNodes); err != nil {
				return fmt.Errorf("fleet: spec %q: tenant %s stream template: %w", s.Name, t.Name, err)
			}
		}
	}
	return nil
}

// validateSubmission checks a submission's campaign body against the
// largest cluster: the router will fill Nodes from the cluster it picks,
// so validation stands in the widest machine the fleet owns. A campaign
// whose widest job exceeds every cluster can never be routed.
func validateSubmission(sub campaign.Spec, maxNodes int) error {
	d, err := sub.Demand()
	if err != nil {
		return err
	}
	if d.MaxWidth > maxNodes {
		return fmt.Errorf("campaign %q needs %d-node jobs but the largest cluster has %d nodes",
			sub.Name, d.MaxWidth, maxNodes)
	}
	trial := sub
	if trial.Nodes == 0 {
		trial.Nodes = maxNodes
	}
	return trial.Validate()
}
