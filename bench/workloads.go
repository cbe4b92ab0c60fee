package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"montecimone/internal/campaign"
	"montecimone/internal/fault"
	"montecimone/internal/fleet"
)

// workload is one named set of inputs the benchmark runs. rep performs one
// repetition: build the inputs from the seed, set up, run the measured
// phase (CPU-profiled into prof when prof is non-nil), check the outputs
// and tear down. tiny shrinks the inputs to a size the harness tests can
// afford; the code path is the same.
type workload struct {
	name string
	// golden marks workloads whose rendered outputs are hashed and checked
	// against bench/golden for seeds 1 and 2.
	golden bool
	rep    func(seed int64, tiny bool, prof *cpuProfile) (*repResult, error)
}

var workloads = []workload{
	{name: "campaign-512", golden: true, rep: func(seed int64, tiny bool, prof *cpuProfile) (*repResult, error) {
		return runCampaign(campaign512Spec(seed, tiny), prof)
	}},
	{name: "campaign-10k", golden: true, rep: func(seed int64, tiny bool, prof *cpuProfile) (*repResult, error) {
		return runCampaign(campaign10kSpec(seed, tiny), prof)
	}},
	{name: "fleet-monitored", golden: true, rep: func(seed int64, tiny bool, prof *cpuProfile) (*repResult, error) {
		return runFleet(fleetSpec(seed, tiny), prof)
	}},
	{name: "query-serve", rep: func(seed int64, tiny bool, prof *cpuProfile) (*repResult, error) {
		return runQueryServe(querySize(tiny), seed, prof)
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repResult is what one repetition saw.
type repResult struct {
	setupS   []float64 // spec to ready-to-run, per set-up
	measureS float64   // wall time of the measured phase
	// latencyMS is the wall time of one operation as its user waits for
	// it: for the simulator workloads the whole run from a ready system to
	// the checked report (set-up has its own metric); for query-serve the
	// median request of the load window.
	latencyMS float64
	ops       int // operations attempted in the measured phase
	failed    int // operations that did not succeed
	// digest hashes the rendered outputs; "" for workloads without them.
	digest string
	// exact holds the counters that must repeat bit for bit; sampled the
	// per-layer values that vary from run to run.
	exact, sampled map[string]float64
	// problems lists output checks that failed.
	problems []string
	// notes are extra diagnostics for the progress log.
	notes string
}

func newRep() *repResult {
	return &repResult{exact: map[string]float64{}, sampled: map[string]float64{}}
}

// Cheap set-ups are repeated, up to setupSamples times while their total
// stays under setupBudget, so a run's median set-up time rests on enough
// samples; expensive ones run once per repetition.
const (
	setupSamples = 5
	setupBudget  = 100 * time.Millisecond
)

// setUp times build, repeating it within the set-up budget. It keeps the
// last result and hands the others to discard.
func setUp[T any](r *repResult, build func() (T, error), discard func(T)) (T, error) {
	var last T
	var spent time.Duration
	for i := 0; i < setupSamples && (i == 0 || spent < setupBudget); i++ {
		t := time.Now()
		v, err := build()
		d := time.Since(t)
		if i > 0 {
			discard(last)
		}
		if err != nil {
			return v, err
		}
		last, spent = v, spent+d
		r.setupS = append(r.setupS, d.Seconds())
	}
	return last, nil
}

// opsPerS is the rate of operations that succeeded in the measured phase.
func (r *repResult) opsPerS() float64 { return ratio(float64(r.ops-r.failed), r.measureS) }

// measure runs fn as the measured phase: timed, CPU-profiled into prof
// when prof is non-nil, with its heap allocations recorded.
func (r *repResult) measure(prof *cpuProfile, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p, err := startProfiling(prof != nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = fn()
	r.measureS = time.Since(t0).Seconds()
	if perr := p.stop(prof); err == nil {
		err = perr
	}
	runtime.ReadMemStats(&m1)
	r.sampled["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.sampled["runtime.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	r.sampled["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	return err
}

// digestOf hashes what the writers render.
func digestOf(writers ...func(io.Writer) error) (string, error) {
	h := sha256.New()
	for _, w := range writers {
		if err := w(h); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// benchMix is the job mix of the repository's campaign-throughput
// benchmark: about 70 % of node-seconds are multi-node HPL.
func benchMix() []campaign.MixEntry {
	return []campaign.MixEntry{
		{Workload: "hpl", Weight: 3, NodesMin: 2, NodesMax: 8, DurationS: 600},
		{Workload: "stream.ddr", Weight: 2, NodesMin: 1, NodesMax: 2, DurationS: 180},
		{Workload: "stream.l2", Weight: 1, DurationS: 180},
		{Workload: "qe", Weight: 2, DurationS: 40},
	}
}

// campaign512Spec is the compute path: a 512-node partition on the serial
// engine with monitoring, the power plane and faults off.
func campaign512Spec(seed int64, tiny bool) campaign.Spec {
	s := campaign.Spec{
		Name: "campaign-512", Nodes: 512, Seed: seed, HorizonS: 40000, Mitigated: true,
		Arrival: &campaign.Arrival{Process: campaign.ProcessPoisson, RatePerHour: 15360, Jobs: 256},
		Mix:     benchMix(),
	}
	if tiny {
		s.Nodes, s.Arrival.RatePerHour, s.Arrival.Jobs = 8, 240, 8
	}
	return s
}

// campaign10kSpec is the scale path: 10 000 nodes, mostly idle, on the
// sharded engine at two shards, with the mix of the repository's
// 10k-node spec (internal/campaign/testdata/scale10k.json).
func campaign10kSpec(seed int64, tiny bool) campaign.Spec {
	s := campaign.Spec{
		Name: "campaign-10k", Nodes: 10000, Seed: seed, HorizonS: 1200, Mitigated: true, Shards: 2,
		Arrival: &campaign.Arrival{Process: campaign.ProcessPoisson, RatePerHour: 20000, Jobs: 250},
		Mix: []campaign.MixEntry{
			{Workload: "hpl", Weight: 3, NodesMin: 2, NodesMax: 8, DurationS: 600},
			{Workload: "stream.ddr", Weight: 2, NodesMin: 1, NodesMax: 2, DurationS: 180},
			{Workload: "qe", Weight: 2, DurationS: 40},
		},
	}
	if tiny {
		s.Nodes, s.HorizonS, s.Arrival.Jobs = 8, 8000, 8
	}
	return s
}

// fleetWorkers is the fleet's worker-pool width: one per core of the
// two-core host the benchmark is sized for.
const fleetWorkers = 2

// fleetSpec is the telemetry, power-plane and fault path: two 16-node
// clusters in rooms at 25 and 28 degC under the powercap policy, each
// capped at 6 W per node (the idle floor is about 4.8 W per node). One
// tenant submits four monitored campaigns, each with node crashes, a
// straggler and checkpointed requeues. The campaigns arrive one second
// apart, so the router's queue penalty gives each cluster two of them
// whatever the seed, and the two workers carry equal work.
func fleetSpec(seed int64, tiny bool) fleet.Spec {
	nodes, campaigns, jobs := 16, 4, 16
	if tiny {
		nodes, campaigns, jobs = 8, 2, 4
	}
	budget := 6.0 * float64(nodes)
	tmpl := campaign.Spec{
		HorizonS: 2400, Monitor: true,
		Arrival: &campaign.Arrival{Process: campaign.ProcessPoisson, RatePerHour: 240, Jobs: jobs},
		Mix:     benchMix(),
		Faults: &fault.Spec{
			Crash:      &fault.Crash{MTBFHours: 6, RebootS: 120},
			Stragglers: &fault.Stragglers{Count: 1, Slowdown: 1.3},
			Checkpoint: true, CheckpointS: 300, MaxRequeues: 10,
		},
	}
	tmpl.Mix[0].DurationS = 300 // HPL: 300 s keeps every job inside the horizon under the cap
	var subs []fleet.Submission
	for i := 0; i < campaigns; i++ {
		sub := fleet.Submission{ArriveS: float64(i), Spec: tmpl}
		sub.Name = fmt.Sprintf("monitored-%d", i)
		subs = append(subs, sub)
	}
	return fleet.Spec{
		Name: "fleet-monitored", Seed: seed,
		Clusters: []fleet.ClusterSpec{
			{ID: "c0", Nodes: nodes, AmbientC: 25, PowerBudgetW: budget, Policy: "powercap", Mitigated: true},
			{ID: "c1", Nodes: nodes, AmbientC: 28, PowerBudgetW: budget, Policy: "powercap", Mitigated: true},
		},
		Tenants: []fleet.TenantSpec{{Name: "tenant", Campaigns: subs}},
	}
}

// runCampaign runs one campaign: setup is campaign.NewRunner, the measured
// phase is Runner.Drain.
func runCampaign(spec campaign.Spec, prof *cpuProfile) (*repResult, error) {
	r := newRep()
	run, err := setUp(r, func() (*campaign.Runner, error) { return campaign.NewRunner(spec) },
		(*campaign.Runner).Close)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	t0 := time.Now()
	sys := run.System()
	events0, steps0 := sys.Engine.Executed(), sys.Cluster.ModelSteps()
	if err := r.measure(prof, run.Drain); err != nil {
		return nil, err
	}
	res := run.Result()
	if r.digest, err = digestOf(res.WriteReport, res.WriteEventLog); err != nil {
		return nil, err
	}
	r.ops = len(res.Jobs)
	r.failed = len(res.Jobs) - res.Completed
	r.latencyMS = 1000 * time.Since(t0).Seconds()
	events := float64(sys.Engine.Executed() - events0)
	r.exact["sim.events"] = events
	r.exact["node.model_steps"] = float64(sys.Cluster.ModelSteps() - steps0)
	addCampaignCounters(r.exact, []*campaign.Result{res})
	r.sampled["sim.events_per_s"] = ratio(events, r.measureS)
	return r, nil
}

// runFleet runs one fleet: setup is fleet.New (validation and routing),
// the measured phase is Fleet.Run. The fleet runs its campaigns inside
// Fleet.Run, so their engines' event and physics-step counts are not
// observable here and read 0.
func runFleet(spec fleet.Spec, prof *cpuProfile) (*repResult, error) {
	r := newRep()
	f, err := setUp(r, func() (*fleet.Fleet, error) { return fleet.New(spec) }, func(*fleet.Fleet) {})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var res *fleet.Result
	if err := r.measure(prof, func() (err error) {
		res, err = f.Run(fleetWorkers)
		return err
	}); err != nil {
		return nil, err
	}
	if r.digest, err = digestOf(res.WriteReport, res.WriteEventLogs); err != nil {
		return nil, err
	}
	for _, c := range res.Campaigns {
		r.ops += len(c.Jobs)
		r.failed += len(c.Jobs) - c.Completed
	}
	r.latencyMS = 1000 * time.Since(t0).Seconds()
	addCampaignCounters(r.exact, res.Campaigns)
	r.exact["fleet.federation_series"] = float64(res.Federation.SeriesCount())
	r.sampled["fleet.max_active"] = float64(res.Stats.MaxActive)
	return r, nil
}

// addCampaignCounters adds the exact counters campaign results report,
// summed over the campaigns' whole runs, boot included (the peak queue is
// their maximum).
func addCampaignCounters(exact map[string]float64, results []*campaign.Result) {
	var windowed, committed uint64
	for _, res := range results {
		windowed += res.WindowedEvents
		committed += res.CommittedEvents
		exact["sim.windows"] += float64(res.EngineWindows)
		exact["sched.requeues"] += float64(res.Requeues)
		exact["examon.published"] += float64(res.BrokerMessages)
		exact["examon.series"] += float64(res.StoredSeries)
		if q := float64(res.PeakQueueDepth); q > exact["sched.peak_queue"] {
			exact["sched.peak_queue"] = q
		}
		if res.Plane != nil {
			exact["powerplane.throttled_nodes"] += float64(res.Plane.ThrottledNodes)
		}
		if f := res.Fault; f != nil {
			exact["fault.crashes"] += float64(f.Crashes)
			exact["fault.trips"] += float64(f.Trips)
			exact["fault.repairs"] += float64(f.Repairs)
		}
	}
	exact["sim.committed_parallel_frac"] = ratio(float64(committed), float64(windowed))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// describe summarizes a repetition for the progress log.
func (r *repResult) describe() string {
	s := fmt.Sprintf("setup %.4gs measured %.4gs ops %d failed %d: %.5g/s, latency %.4gms",
		median(r.setupS), r.measureS, r.ops, r.failed, r.opsPerS(), r.latencyMS)
	if r.notes != "" {
		s += "; " + r.notes
	}
	return s
}
