// Package campaign is the trace-driven campaign engine: declarative
// campaign specifications (a workload mix, an arrival process, node
// counts and a seed) expand through a deterministic seeded generator into
// a job stream, and a runner drives that stream through the whole testbed
// — scheduler, cluster physics, power plane and the ExaMon telemetry
// stack — emitting a per-campaign report and event log. Same spec + same
// seed ⇒ byte-identical report and log, which is what makes campaign
// results comparable across scheduler policies and code changes (the
// paper's Section V evaluation is exactly such a catalogue of campaigns).
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"montecimone/internal/examon"
	"montecimone/internal/fault"
	"montecimone/internal/sched"
	"montecimone/internal/workload"
)

// MaxSpecSize caps the counts a spec sizes memory by: a campaign's nodes
// and arrival jobs, and a fleet cluster's nodes and stream count.
// cluster.New, GenerateJobs and the fleet router allocate one entry per
// unit before the run starts, so an unbounded count exhausts memory
// instead of failing. The cap sits far above every checked-in spec:
// scale100k.json asks for 100,000 nodes.
const MaxSpecSize = 1_000_000

// Arrival describes how generated jobs enter the queue.
type Arrival struct {
	// Process selects the arrival process: "poisson" (memoryless
	// interarrivals at RatePerHour), "burst" (groups of BurstSize
	// back-to-back submissions every PeriodS — by default spaced so the
	// mean rate matches RatePerHour) or "diurnal" (a Poisson process
	// thinned against a day-shaped sinusoid of period PeriodS).
	Process string `json:"process"`
	// RatePerHour is the mean submission rate.
	RatePerHour float64 `json:"rate_per_hour"`
	// Jobs is how many arrivals to generate.
	Jobs int `json:"jobs"`
	// BurstSize is the burst group size (burst process only; default 4).
	BurstSize int `json:"burst_size,omitempty"`
	// PeriodS is the process period in virtual seconds: the sinusoid
	// period for diurnal (default 86400) and the inter-burst spacing for
	// burst (default BurstSize/rate, which keeps the mean rate at
	// RatePerHour; setting it explicitly overrides the rate).
	PeriodS float64 `json:"period_s,omitempty"`
}

// MixEntry is one workload class in the campaign mix.
type MixEntry struct {
	// Workload names a registry model (workload.Lookup).
	Workload string `json:"workload"`
	// Weight is the relative pick probability (> 0).
	Weight float64 `json:"weight"`
	// NodesMin and NodesMax bound the uniformly drawn node count
	// (defaults 1/1).
	NodesMin int `json:"nodes_min,omitempty"`
	NodesMax int `json:"nodes_max,omitempty"`
	// DurationS pins the job duration; 0 asks the workload model's
	// runtime estimate for the drawn node count.
	DurationS float64 `json:"duration_s,omitempty"`
	// TimeLimitFactor scales duration into the wall-time limit
	// (default 1.5).
	TimeLimitFactor float64 `json:"time_limit_factor,omitempty"`
}

// JobEntry is one fully resolved submission: what the generator emits and
// what explicit trace campaigns list directly.
type JobEntry struct {
	// Name labels the job in the queue and the report.
	Name string `json:"name"`
	// Workload names a registry model.
	Workload string `json:"workload"`
	// Nodes is the allocation width.
	Nodes int `json:"nodes"`
	// SubmitS is the submission time relative to campaign start.
	SubmitS float64 `json:"submit_s"`
	// DurationS is the modelled execution time; TimeLimitS the wall
	// limit (default 1.5 x duration).
	DurationS  float64 `json:"duration_s"`
	TimeLimitS float64 `json:"time_limit_s,omitempty"`
}

// Spec is a declarative campaign: the machine, the policy and the job
// stream (an explicit trace, a generated mix, or both).
type Spec struct {
	// Name labels the campaign in reports.
	Name string `json:"name"`
	// Nodes is the partition size (synthetic slots beyond the paper's 8).
	Nodes int `json:"nodes"`
	// Seed drives every random draw; same spec + seed reproduces the
	// campaign byte for byte.
	Seed int64 `json:"seed"`
	// HorizonS is the drain horizon in virtual seconds after campaign
	// start; jobs still queued or running then are reported as such.
	HorizonS float64 `json:"horizon_s"`
	// Policy is the scheduler policy (sched.PolicyNames; default easy).
	Policy string `json:"policy,omitempty"`
	// Monitor starts the pmu_pub/stats_pub sampling plugins.
	Monitor bool `json:"monitor,omitempty"`
	// Mitigated applies the paper's airflow fix before submitting (lid
	// off, wider spacing); without it long HPL runs trip node 7.
	Mitigated bool `json:"mitigated,omitempty"`
	// PowerBudgetW enables the cluster power plane at this budget.
	PowerBudgetW float64 `json:"power_budget_w,omitempty"`
	// Deprecated: Shards has no effect; the engine is serial. It is still
	// parsed and validated (>= 0) so existing specs keep loading.
	Shards int `json:"shards,omitempty"`
	// Org and ClusterTag scope the campaign's telemetry samples — the
	// fleet runner stamps each routed campaign with its cluster's
	// identity so federated queries can select one cluster's series.
	// Empty keeps the ExaMon defaults (byte-identical reports).
	Org        string `json:"org,omitempty"`
	ClusterTag string `json:"cluster,omitempty"`
	// AmbientC overrides the machine-room inlet temperature in °C
	// (0 keeps the paper's 25 °C room). Heterogeneous fleet sites set it
	// per cluster; hotter rooms boot closer to the 107 °C trip.
	AmbientC float64 `json:"ambient_c,omitempty"`
	// Faults enables the chaos machinery: the block compiles into a
	// deterministic fault timeline (crashes, thermal runaways, brownouts,
	// network degradation, stragglers) and switches on NODE_FAIL
	// requeueing, the checkpoint/restart model and the availability /
	// goodput / MTTR report columns. nil (faults off) leaves the campaign
	// byte-identical to a spec without the field — the built-in ablation.
	Faults *fault.Spec `json:"faults,omitempty"`
	// Arrival and Mix generate a job stream; Jobs lists an explicit
	// trace. At least one source must be present.
	Arrival *Arrival   `json:"arrival,omitempty"`
	Mix     []MixEntry `json:"mix,omitempty"`
	Jobs    []JobEntry `json:"jobs,omitempty"`
}

// Arrival process names.
const (
	ProcessPoisson = "poisson"
	ProcessBurst   = "burst"
	ProcessDiurnal = "diurnal"
)

// Parse decodes a JSON campaign spec, rejecting unknown fields (a typo in
// a spec should fail loudly, not silently drop a knob), and validates it.
func Parse(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load reads and parses a campaign spec file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: spec %s: %w", path, err)
	}
	return s, nil
}

// Validate checks the spec against the registry, the policy table and the
// arrival process catalogue.
func (s *Spec) Validate() error {
	if s.Nodes < 1 {
		return fmt.Errorf("campaign: spec %q: nodes must be positive, got %d", s.Name, s.Nodes)
	}
	if s.Nodes > MaxSpecSize {
		return fmt.Errorf("campaign: spec %q: nodes must be at most %d, got %d", s.Name, MaxSpecSize, s.Nodes)
	}
	if s.HorizonS <= 0 {
		return fmt.Errorf("campaign: spec %q: horizon_s must be positive, got %v", s.Name, s.HorizonS)
	}
	if s.Shards < 0 {
		return fmt.Errorf("campaign: spec %q: shards must be >= 0, got %d", s.Name, s.Shards)
	}
	if s.AmbientC < 0 {
		return fmt.Errorf("campaign: spec %q: ambient_c must be >= 0, got %v", s.Name, s.AmbientC)
	}
	if s.PowerBudgetW < 0 {
		return fmt.Errorf("campaign: spec %q: power_budget_w must be >= 0, got %v", s.Name, s.PowerBudgetW)
	}
	if math.IsNaN(s.PowerBudgetW) || math.IsInf(s.PowerBudgetW, 0) {
		return fmt.Errorf("campaign: spec %q: power_budget_w must be finite, got %v", s.Name, s.PowerBudgetW)
	}
	// The scope tags land in every telemetry sample, where each must be
	// one topic level; the broker would reject every batch otherwise.
	for _, tag := range []struct{ field, value string }{{"org", s.Org}, {"cluster", s.ClusterTag}} {
		if err := examon.CheckTagLevel(tag.value); err != nil {
			return fmt.Errorf("campaign: spec %q: %s: %w", s.Name, tag.field, err)
		}
	}
	if s.Policy != "" {
		if _, err := sched.PolicyByName(s.Policy); err != nil {
			return fmt.Errorf("campaign: spec %q: %w", s.Name, err)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(s.Nodes, s.HorizonS, s.PowerBudgetW > 0); err != nil {
			return fmt.Errorf("campaign: spec %q: %w", s.Name, err)
		}
	}
	if len(s.Jobs) == 0 && (s.Arrival == nil || len(s.Mix) == 0) {
		return fmt.Errorf("campaign: spec %q: needs explicit jobs or an arrival process with a mix", s.Name)
	}
	if s.Arrival != nil {
		a := s.Arrival
		switch a.Process {
		case ProcessPoisson, ProcessBurst, ProcessDiurnal:
		default:
			return fmt.Errorf("campaign: spec %q: unknown arrival process %q (have %s, %s, %s)",
				s.Name, a.Process, ProcessPoisson, ProcessBurst, ProcessDiurnal)
		}
		if a.RatePerHour <= 0 {
			return fmt.Errorf("campaign: spec %q: arrival rate_per_hour must be positive, got %v", s.Name, a.RatePerHour)
		}
		if a.Jobs <= 0 {
			return fmt.Errorf("campaign: spec %q: arrival jobs must be positive, got %d", s.Name, a.Jobs)
		}
		if a.Jobs > MaxSpecSize {
			return fmt.Errorf("campaign: spec %q: arrival jobs must be at most %d, got %d", s.Name, MaxSpecSize, a.Jobs)
		}
		if a.BurstSize < 0 || a.PeriodS < 0 {
			return fmt.Errorf("campaign: spec %q: negative burst_size/period_s", s.Name)
		}
		if len(s.Mix) == 0 {
			return fmt.Errorf("campaign: spec %q: an arrival process needs a workload mix", s.Name)
		}
	}
	totalWeight := 0.0
	for i, m := range s.Mix {
		model, err := workload.Lookup(m.Workload)
		if err != nil {
			return fmt.Errorf("campaign: spec %q mix[%d]: %w", s.Name, i, err)
		}
		if m.Weight <= 0 {
			return fmt.Errorf("campaign: spec %q mix[%d] (%s): weight must be positive, got %v", s.Name, i, m.Workload, m.Weight)
		}
		lo, hi := m.nodeBounds()
		if lo < 1 || hi < lo || hi > s.Nodes {
			return fmt.Errorf("campaign: spec %q mix[%d] (%s): node bounds [%d,%d] outside [1,%d]",
				s.Name, i, m.Workload, lo, hi, s.Nodes)
		}
		if m.DurationS < 0 || m.TimeLimitFactor < 0 {
			return fmt.Errorf("campaign: spec %q mix[%d] (%s): negative duration/time-limit factor", s.Name, i, m.Workload)
		}
		if m.DurationS == 0 && model.Runtime == nil {
			return fmt.Errorf("campaign: spec %q mix[%d] (%s): model has no runtime estimate, set duration_s",
				s.Name, i, m.Workload)
		}
		totalWeight += m.Weight
	}
	// GenerateJobs scales its pick by the total and Demand divides by it,
	// so a sum that overflows (or a NaN weight) would skew every pick.
	if math.IsInf(totalWeight, 0) || math.IsNaN(totalWeight) {
		return fmt.Errorf("campaign: spec %q: mix weights sum to %v, want a finite total", s.Name, totalWeight)
	}
	for i, j := range s.Jobs {
		if _, err := workload.Lookup(j.Workload); err != nil {
			return fmt.Errorf("campaign: spec %q jobs[%d]: %w", s.Name, i, err)
		}
		if j.Nodes < 1 || j.Nodes > s.Nodes {
			return fmt.Errorf("campaign: spec %q jobs[%d] (%s): %d nodes outside [1,%d]",
				s.Name, i, j.Name, j.Nodes, s.Nodes)
		}
		if j.SubmitS < 0 || j.DurationS < 0 || j.TimeLimitS < 0 {
			return fmt.Errorf("campaign: spec %q jobs[%d] (%s): negative timing", s.Name, i, j.Name)
		}
		if j.DurationS == 0 && j.TimeLimitS == 0 {
			// The scheduler rejects a zero wall limit at submission; catch
			// the mistake at spec load instead of failing the whole trace.
			return fmt.Errorf("campaign: spec %q jobs[%d] (%s): needs duration_s or time_limit_s", s.Name, i, j.Name)
		}
	}
	return nil
}

// Demand is a campaign's deterministic resource-demand estimate: what the
// fleet meta-scheduler prices a campaign at before routing it, without
// expanding the job stream (no RNG draws — adding a meta-level consumer
// must never perturb the campaign's own generator streams).
type Demand struct {
	// Jobs is the number of jobs the spec expands to.
	Jobs int
	// MaxWidth is the widest single job the spec can produce — the
	// feasibility floor for a hosting cluster's node count.
	MaxWidth int
	// NodeSeconds is the expected node-seconds of useful work.
	NodeSeconds float64
	// LongestS is the longest single-job duration estimate — a lower
	// bound on the campaign's busy time however many nodes are free.
	LongestS float64
	// ByWorkload splits NodeSeconds per workload name, so power-aware
	// scorers can weight each workload's calibrated activity profile.
	ByWorkload map[string]float64
}

// Demand computes the spec's demand estimate. Mix entries contribute
// expectation values (mean node width, pick probability); explicit jobs
// contribute exactly. Durations come from the pinned DurationS or the
// model's runtime estimate at the mean width — jitter is not applied, so
// the estimate is a pure function of the spec.
func (s *Spec) Demand() (Demand, error) {
	d := Demand{ByWorkload: make(map[string]float64)}
	add := func(workloadName string, nodes int, nodeSeconds, durS float64) {
		d.Jobs++
		if nodes > d.MaxWidth {
			d.MaxWidth = nodes
		}
		if durS > d.LongestS {
			d.LongestS = durS
		}
		d.NodeSeconds += nodeSeconds
		d.ByWorkload[workloadName] += nodeSeconds
	}
	for _, j := range s.Jobs {
		dur := j.DurationS
		if dur == 0 {
			dur = j.TimeLimitS
		}
		add(j.Workload, j.Nodes, float64(j.Nodes)*dur, dur)
	}
	if s.Arrival != nil {
		total := 0.0
		for _, m := range s.Mix {
			total += m.Weight
		}
		// Expected node-seconds of one arrival, split per entry by pick
		// probability; every arrival contributes the same expectation.
		type entryEst struct {
			name     string
			p        float64
			meanW    float64
			durS     float64
			maxNodes int
		}
		ests := make([]entryEst, 0, len(s.Mix))
		for _, m := range s.Mix {
			lo, hi := m.nodeBounds()
			mean := float64(lo+hi) / 2
			dur := m.DurationS
			if dur == 0 {
				model, err := workload.Lookup(m.Workload)
				if err != nil {
					return Demand{}, err
				}
				est, err := model.Runtime(int(mean + 0.5))
				if err != nil {
					return Demand{}, fmt.Errorf("campaign: demand estimate for %s: %w", m.Workload, err)
				}
				dur = est
			}
			ests = append(ests, entryEst{name: m.Workload, p: m.Weight / total, meanW: mean, durS: dur, maxNodes: hi})
		}
		d.Jobs += s.Arrival.Jobs
		for _, e := range ests {
			ns := float64(s.Arrival.Jobs) * e.p * e.meanW * e.durS
			d.NodeSeconds += ns
			d.ByWorkload[e.name] += ns
			if e.maxNodes > d.MaxWidth {
				d.MaxWidth = e.maxNodes
			}
			if e.durS > d.LongestS {
				d.LongestS = e.durS
			}
		}
	}
	return d, nil
}

// nodeBounds applies the 1/1 defaults.
func (m *MixEntry) nodeBounds() (lo, hi int) {
	lo, hi = m.NodesMin, m.NodesMax
	if lo == 0 {
		lo = 1
	}
	if hi == 0 {
		hi = lo
	}
	return lo, hi
}

// DefaultSpec is the mcsched demo campaign: the five-job mixed benchmark
// trace the command used to hard-code, expressed as a declarative spec
// (HPL across the machine, both STREAM sets, a LAX run and a half-machine
// HPL tail).
func DefaultSpec(nodes int, policy string, mitigated bool, budgetW float64) Spec {
	return Spec{
		Name: "mcsched-demo", Nodes: nodes, Seed: 1, HorizonS: 30000,
		Policy: policy, Mitigated: mitigated, PowerBudgetW: budgetW,
		Jobs: []JobEntry{
			{Name: "hpl-full", Workload: "hpl", Nodes: nodes, TimeLimitS: 5400, DurationS: 3700},
			{Name: "stream-ddr", Workload: "stream.ddr", Nodes: 1, TimeLimitS: 600, DurationS: 300},
			{Name: "stream-l2", Workload: "stream.l2", Nodes: 1, TimeLimitS: 600, DurationS: 300},
			{Name: "qe-lax", Workload: "qe", Nodes: 1, TimeLimitS: 300, DurationS: 38},
			{Name: "hpl-half", Workload: "hpl", Nodes: (nodes + 1) / 2, TimeLimitS: 3600, DurationS: 1900},
		},
	}
}

// ChaosSpec is the standard chaos campaign: a Poisson stream of mixed
// work (weighted toward multi-node HPL, the shape that contends for nodes)
// run under a fault storm with every class armed — node crash/reboot
// cycles, thermal runaway injections that drive the 107 degC trip, a
// mid-run network degradation window, one straggler node and, when a
// power budget enables the plane, two brownout budget steps. Requeueing
// and phase-boundary checkpointing are on. mcrun -experiment chaos and
// examples/chaosstudy.json (the spec file behind the EXPERIMENTS.md
// availability table) run this spec, so policy comparisons share one
// fault timeline per seed.
func ChaosSpec(nodes int, policy string, budgetW float64) Spec {
	s := DefaultSpec(nodes, policy, true, budgetW)
	s.Name = "chaos-standard"
	s.Jobs = nil
	s.Arrival = &Arrival{Process: ProcessPoisson, RatePerHour: 18, Jobs: 60}
	s.Mix = []MixEntry{
		{Workload: "hpl", Weight: 3, NodesMin: 2, NodesMax: nodes, DurationS: 1200},
		{Workload: "stream.ddr", Weight: 2, NodesMin: 1, NodesMax: 2, DurationS: 300},
		{Workload: "stream.l2", Weight: 1, DurationS: 300},
		{Workload: "qe", Weight: 2, DurationS: 40},
	}
	s.Faults = &fault.Spec{
		Crash:      &fault.Crash{MTBFHours: 4, RebootS: 120},
		Thermal:    &fault.Thermal{Injections: 2, ExtraRthKW: 7, ExtraAirC: 20, RepairS: 300},
		Network:    []fault.NetWindow{{StartS: 1500, DurationS: 900, LatencyMult: 8, BandwidthMult: 0.25}},
		Stragglers: &fault.Stragglers{Count: 1, Slowdown: 1.3},
		Checkpoint: true, CheckpointS: 300,
	}
	if budgetW > 0 {
		s.Faults.PowerSteps = []fault.PowerStep{
			{AtS: 6000, BudgetW: budgetW * 0.6},
			{AtS: 9000, BudgetW: budgetW},
		}
	}
	return s
}
