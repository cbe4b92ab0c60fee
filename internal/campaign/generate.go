package campaign

import (
	"fmt"
	"math"
	"sort"

	"montecimone/internal/sim"
	"montecimone/internal/workload"
)

// Deterministic generator streams: every draw comes from a named
// sim.RNG stream rooted at the spec seed, so adding a new consumer never
// perturbs existing draws and the same spec + seed always expands into
// the same job stream.
const (
	streamArrival = "campaign.arrival"
	streamPick    = "campaign.pick"
	streamNodes   = "campaign.nodes"
	streamJitter  = "campaign.jitter"
)

// durationJitterStd is the relative run-to-run spread applied to model
// runtime estimates (matching the few-percent repetition noise the paper
// reports for its benchmark runs).
const durationJitterStd = 0.03

// diurnalAmplitude shapes the diurnal process: rate swings between
// (1-amp) and (1+amp) times the mean over one period.
const diurnalAmplitude = 0.8

// GenerateJobs expands the spec into its fully resolved job stream: the
// explicit trace entries plus the arrivals drawn from the mix, sorted by
// submission time (ties keep generation order). The expansion is
// deterministic in (spec, seed).
func (s *Spec) GenerateJobs() ([]JobEntry, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	jobs := make([]JobEntry, 0, len(s.Jobs))
	for _, j := range s.Jobs {
		if j.TimeLimitS == 0 {
			j.TimeLimitS = 1.5 * j.DurationS
		}
		jobs = append(jobs, j)
	}
	if s.Arrival != nil {
		rng := sim.NewRNG(s.Seed)
		times, err := s.arrivalTimes(rng)
		if err != nil {
			return nil, err
		}
		cum := make([]float64, len(s.Mix))
		total := 0.0
		for i, m := range s.Mix {
			total += m.Weight
			cum[i] = total
		}
		for i, at := range times {
			u := rng.Stream(streamPick).Float64() * total
			mi := sort.SearchFloat64s(cum, u)
			if mi == len(cum) { // u == total boundary
				mi = len(cum) - 1
			}
			entry, err := s.drawJob(rng, s.Mix[mi], i, at)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, entry)
		}
	}
	// A job starts by the horizon at the latest and ends within its wall
	// limit, so the scheduler orders and schedules it by times up to their
	// sum. A huge duration times the default 1.5, or the mix's jitter and
	// factor, overflows that to +Inf; so does a huge horizon.
	for _, j := range jobs {
		if end := s.HorizonS + j.TimeLimitS; !(end <= math.MaxFloat64) {
			return nil, fmt.Errorf("campaign: spec %q job %s: its latest end, horizon_s %v plus time limit %v, is not finite",
				s.Name, j.Name, s.HorizonS, j.TimeLimitS)
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].SubmitS < jobs[j].SubmitS })
	return jobs, nil
}

// arrivalTimes draws the submission instants for the configured process.
func (s *Spec) arrivalTimes(rng *sim.RNG) ([]float64, error) {
	a := s.Arrival
	ratePerSec := a.RatePerHour / 3600
	out := make([]float64, 0, a.Jobs)
	switch a.Process {
	case ProcessPoisson:
		t := 0.0
		for len(out) < a.Jobs {
			t += rng.Stream(streamArrival).ExpFloat64() / ratePerSec
			out = append(out, t)
		}
	case ProcessBurst:
		size := a.BurstSize
		if size == 0 {
			size = 4
		}
		period := a.PeriodS
		if period == 0 {
			period = float64(size) / ratePerSec // mean rate matches RatePerHour
		}
		for i := 0; len(out) < a.Jobs; i++ {
			at := float64(i) * period
			for b := 0; b < size && len(out) < a.Jobs; b++ {
				out = append(out, at)
			}
		}
	case ProcessDiurnal:
		period := a.PeriodS
		if period == 0 {
			period = 86400
		}
		peak := ratePerSec * (1 + diurnalAmplitude)
		t := 0.0
		// Thinning: candidates at the peak rate, accepted against the
		// sinusoid (trough at t=0, crest at period/2 — campaigns start in
		// the quiet hours and ramp into the busy ones).
		for len(out) < a.Jobs {
			t += rng.Stream(streamArrival).ExpFloat64() / peak
			rate := ratePerSec * (1 + diurnalAmplitude*math.Sin(2*math.Pi*t/period-math.Pi/2))
			if rng.Stream(streamArrival).Float64()*peak <= rate {
				out = append(out, t)
			}
		}
	default:
		return nil, fmt.Errorf("campaign: unknown arrival process %q", a.Process)
	}
	return out, nil
}

// drawJob resolves one arrival against a mix entry: node count, duration
// (pinned or estimated from the model's simulator wiring, with
// deterministic jitter) and wall limit.
func (s *Spec) drawJob(rng *sim.RNG, m MixEntry, idx int, at float64) (JobEntry, error) {
	model := workload.MustLookup(m.Workload) // validated by Spec.Validate
	lo, hi := m.nodeBounds()
	nodes := lo
	if hi > lo {
		nodes = lo + rng.Stream(streamNodes).Intn(hi-lo+1)
	}
	dur := m.DurationS
	if dur == 0 {
		est, err := model.Runtime(nodes)
		if err != nil {
			return JobEntry{}, fmt.Errorf("campaign: runtime estimate for %s on %d nodes: %w", m.Workload, nodes, err)
		}
		dur = est
	}
	jitter := 1 + rng.Normal(streamJitter, 0, durationJitterStd)
	if jitter < 0.5 {
		jitter = 0.5
	}
	if jitter > 1.5 {
		jitter = 1.5
	}
	dur *= jitter
	factor := m.TimeLimitFactor
	if factor == 0 {
		factor = 1.5
	}
	if factor < 1 {
		factor = 1
	}
	return JobEntry{
		Name:       fmt.Sprintf("%s-%03d", m.Workload, idx),
		Workload:   m.Workload,
		Nodes:      nodes,
		SubmitS:    at,
		DurationS:  dur,
		TimeLimitS: dur * factor,
	}, nil
}
