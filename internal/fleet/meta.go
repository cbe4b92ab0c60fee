package fleet

import (
	"fmt"
	"sort"

	"montecimone/internal/campaign"
	"montecimone/internal/powerplane"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
	"montecimone/internal/workload"
)

// referenceAmbientC is the paper's 25 °C machine room — the ambient at
// which a cluster scores full thermal fit.
const referenceAmbientC = 25.0

// Scoring weights, mirroring the wao-scheduler minimizepower shape: a
// 0–100 headroom score minus a flat penalty per queued campaign.
const (
	scoreScale        = 100.0
	queuePenaltyScore = 25.0
)

// Assignment is one routing decision: which cluster a tenant campaign
// landed on, the score that won, and the predictive bookkeeping behind
// it. The embedded Campaign spec is runner-ready — the meta-scheduler has
// filled its machine half (nodes, policy, budget, ambient, telemetry
// tags, seed) from the chosen cluster.
type Assignment struct {
	// Seq is the global arrival sequence number (routing order).
	Seq int
	// Tenant names the submitting tenant.
	Tenant string
	// ArriveS is the fleet-level arrival instant.
	ArriveS float64
	// ClusterID and ClusterIx locate the chosen cluster in the fleet spec.
	ClusterID string
	ClusterIx int
	// Score is the winning cluster's routing score at the arrival instant.
	Score float64
	// Campaign is the routed, runner-ready campaign spec.
	Campaign campaign.Spec
	// Demand is the campaign's demand estimate the score was priced from.
	Demand campaign.Demand
	// StartS/EndS bracket the campaign's predicted occupancy on the
	// cluster's fleet-level timeline; DrawW is its predicted steady draw
	// above the idle floor while resident.
	StartS, EndS float64
	DrawW        float64
}

// submission is one expanded arrival awaiting routing.
type submission struct {
	tenant   string
	tenantIx int
	seq      int // order within the tenant's expanded stream
	arriveS  float64
	spec     campaign.Spec
}

// clusterState is the meta-scheduler's predictive bookkeeping for one
// cluster. It never consults the live cluster: routing runs as a serial
// pre-pass over the arrival stream before any cluster executes, so
// decisions depend only on (spec, seed) and stay byte-identical at any
// worker count.
type clusterState struct {
	spec     ClusterSpec
	usableW  float64 // power budget above the idle floor; 0 = uncapped
	ambientC float64
	// nextFreeS is when the cluster's sequential campaign queue drains
	// under the predictions so far; resident holds the campaigns predicted
	// still busy (their predicted end and steady draw).
	nextFreeS float64
	resident  []residency
}

type residency struct {
	endS  float64
	drawW float64
}

// expire drops residencies whose predicted end has passed.
func (cs *clusterState) expire(now float64) {
	kept := cs.resident[:0]
	for _, r := range cs.resident {
		if r.endS > now {
			kept = append(kept, r)
		}
	}
	cs.resident = kept
}

// committedW sums the predicted draw of every resident campaign.
func (cs *clusterState) committedW() float64 {
	var w float64
	for _, r := range cs.resident {
		w += r.drawW
	}
	return w
}

// newClusterState prices the cluster's static headroom inputs.
func newClusterState(c ClusterSpec) *clusterState {
	cs := &clusterState{spec: c, ambientC: c.AmbientC}
	if cs.ambientC == 0 {
		cs.ambientC = referenceAmbientC
	}
	if c.PowerBudgetW > 0 {
		cs.usableW = c.PowerBudgetW - powerplane.IdleFloorWatts(c.Nodes)
		if cs.usableW < 0 {
			cs.usableW = 0
		}
	}
	return cs
}

// thermalFit scores the cluster's distance from the 107 °C trip relative
// to the paper's 25 °C reference room: 1.0 at or below 25 °C, falling
// linearly to 0 as the ambient approaches the trip point.
func (cs *clusterState) thermalFit() float64 {
	fit := (thermal.TripTempC - cs.ambientC) / (thermal.TripTempC - referenceAmbientC)
	if fit > 1 {
		return 1
	}
	if fit < 0 {
		return 0
	}
	return fit
}

// powerFit scores the budget headroom left after the resident campaigns'
// predicted draw and the candidate's own: 1.0 on an uncapped cluster,
// otherwise remaining usable budget over total usable budget, floored at
// 0 when the prediction oversubscribes the budget.
func (cs *clusterState) powerFit(candidateW float64) float64 {
	if cs.spec.PowerBudgetW <= 0 {
		return 1
	}
	if cs.usableW <= 0 {
		return 0
	}
	fit := (cs.usableW - cs.committedW() - candidateW) / cs.usableW
	if fit < 0 {
		return 0
	}
	if fit > 1 {
		fit = 1
	}
	return fit
}

// score is the minimizepower-shaped routing score at the arrival
// instant: predicted power fit × thermal fit scaled to 0–100, minus a
// flat penalty per campaign still resident (the queue-depth term). Higher
// is better.
func (cs *clusterState) score(candidateW float64) float64 {
	depth := float64(len(cs.resident))
	return scoreScale*cs.powerFit(candidateW)*cs.thermalFit() - queuePenaltyScore*depth
}

// busyEstimate is the campaign's predicted occupancy on a cluster of the
// given width: the work-conserving lower bound (node-seconds spread over
// the whole partition) floored by the longest single job, capped at the
// campaign horizon past which the runner stops regardless.
func busyEstimate(d campaign.Demand, nodes int, horizonS float64) float64 {
	busy := d.LongestS
	if nodes > 0 {
		if spread := d.NodeSeconds / float64(nodes); spread > busy {
			busy = spread
		}
	}
	if horizonS > 0 && busy > horizonS {
		busy = horizonS
	}
	return busy
}

// predictedDrawW prices the campaign's steady draw above idle: each
// workload's calibrated mean-phase activity through the rail model,
// weighted by its share of the demand spread over the busy estimate.
// Workloads iterate in sorted name order so the float sum — and therefore
// every score built on it — is identical on every run.
func predictedDrawW(d campaign.Demand, busyS float64) float64 {
	if busyS <= 0 {
		return 0
	}
	names := make([]string, 0, len(d.ByWorkload))
	for name := range d.ByWorkload {
		names = append(names, name)
	}
	sort.Strings(names)
	var w float64
	for _, name := range names {
		model, err := workload.Lookup(name)
		if err != nil {
			continue // spec validation already rejected unknown workloads
		}
		perNodeW := powerplane.PredictedWatts(model.MeanPhaseActivity(), 1)
		w += perNodeW * (d.ByWorkload[name] / busyS)
	}
	return w
}

// expand turns the tenant declarations into the global arrival stream,
// sorted by (arrival, tenant order, submission order). Stream arrivals
// draw exponential interarrivals from the tenant's own named stream of
// the fleet RNG ("fleet.tenant.<name>.arrival"), so adding or reordering
// one tenant never perturbs another tenant's timeline.
func expand(s Spec, rng *sim.RNG) []submission {
	var subs []submission
	for ti, t := range s.Tenants {
		seq := 0
		for _, c := range t.Campaigns {
			spec := c.Spec
			spec.Name = t.Name + "/" + spec.Name
			subs = append(subs, submission{
				tenant: t.Name, tenantIx: ti, seq: seq, arriveS: c.ArriveS, spec: spec,
			})
			seq++
		}
		if st := t.Stream; st != nil {
			stream := rng.Stream("fleet.tenant." + t.Name + ".arrival")
			meanGapS := 3600 / st.RatePerHour
			at := 0.0
			for i := 0; i < st.Count; i++ {
				at += stream.ExpFloat64() * meanGapS
				spec := st.Template
				spec.Name = fmt.Sprintf("%s/%s#%d", t.Name, spec.Name, i+1)
				subs = append(subs, submission{
					tenant: t.Name, tenantIx: ti, seq: seq, arriveS: at, spec: spec,
				})
				seq++
			}
		}
	}
	sort.SliceStable(subs, func(i, j int) bool {
		if subs[i].arriveS != subs[j].arriveS {
			return subs[i].arriveS < subs[j].arriveS
		}
		if subs[i].tenantIx != subs[j].tenantIx {
			return subs[i].tenantIx < subs[j].tenantIx
		}
		return subs[i].seq < subs[j].seq
	})
	return subs
}

// route runs the serial routing pre-pass: every submission, in arrival
// order, is scored against every feasible cluster using the predictive
// bookkeeping, and the winner (highest score, ties to the lowest cluster
// index) receives it. Per-campaign seeds come from the chosen cluster's
// derived RNG factory ("fleet.cluster.<id>") in routed order, so a
// cluster's seed sequence is a pure function of (fleet seed, cluster id,
// campaigns routed to it) — adding a cluster that wins no campaigns
// changes nothing for the others.
func route(s Spec, rng *sim.RNG) ([]Assignment, error) {
	states := make([]*clusterState, len(s.Clusters))
	clusterRNGs := make([]*sim.RNG, len(s.Clusters))
	for i, c := range s.Clusters {
		states[i] = newClusterState(c)
		clusterRNGs[i] = rng.Derive("fleet.cluster." + c.ID)
	}
	org := s.Org
	if org == "" {
		org = DefaultOrg
	}
	subs := expand(s, rng)
	out := make([]Assignment, 0, len(subs))
	for seq, sub := range subs {
		d, err := sub.spec.Demand()
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %s campaign %s: %w", sub.tenant, sub.spec.Name, err)
		}
		best, bestScore := -1, 0.0
		var bestBusy, bestDraw float64
		for i, cs := range states {
			if cs.spec.Nodes < d.MaxWidth {
				continue // infeasible: the widest job cannot fit
			}
			cs.expire(sub.arriveS)
			busy := busyEstimate(d, cs.spec.Nodes, sub.spec.HorizonS)
			draw := predictedDrawW(d, busy)
			score := cs.score(draw)
			if best < 0 || score > bestScore {
				best, bestScore, bestBusy, bestDraw = i, score, busy, draw
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("fleet: tenant %s campaign %s: no cluster fits its %d-node jobs",
				sub.tenant, sub.spec.Name, d.MaxWidth)
		}
		cs := states[best]
		startS := sub.arriveS
		if cs.nextFreeS > startS {
			startS = cs.nextFreeS
		}
		endS := startS + bestBusy
		cs.resident = append(cs.resident, residency{endS: endS, drawW: bestDraw})
		cs.nextFreeS = endS

		routed := sub.spec
		c := cs.spec
		routed.Nodes = c.Nodes
		if c.Policy != "" {
			routed.Policy = c.Policy
		}
		routed.PowerBudgetW = c.PowerBudgetW
		routed.Mitigated = routed.Mitigated || c.Mitigated
		routed.AmbientC = c.AmbientC
		routed.Org = org
		routed.ClusterTag = c.ID
		if routed.Seed == 0 {
			routed.Seed = clusterRNGs[best].Stream("fleet.campaign.seed").Int63()
		}
		if err := routed.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: tenant %s campaign %s on cluster %s: %w",
				sub.tenant, sub.spec.Name, c.ID, err)
		}
		out = append(out, Assignment{
			Seq: seq, Tenant: sub.tenant, ArriveS: sub.arriveS,
			ClusterID: c.ID, ClusterIx: best, Score: bestScore,
			Campaign: routed, Demand: d,
			StartS: startS, EndS: endS, DrawW: bestDraw,
		})
	}
	return out, nil
}
