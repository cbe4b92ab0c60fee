package fault

import (
	"sort"

	"montecimone/internal/sim"
)

// Named RNG streams, one per stochastic fault class. Power steps and
// network windows are fully explicit in the spec and draw nothing.
const (
	streamCrash     = "fault.crash"
	streamThermal   = "fault.thermal"
	streamStraggler = "fault.straggler"
)

// Kind discriminates compiled fault events.
type Kind int

const (
	// KindCrash powers a node off (NODE_FAIL for its job) and starts its
	// reboot clock.
	KindCrash Kind = iota
	// KindThermalInject installs an airflow fault on a node; the trip and
	// repair follow from the physics, not from further compiled events.
	KindThermalInject
	// KindPowerStep rewrites the power plane's budget.
	KindPowerStep
	// KindNetStart / KindNetEnd bracket a network-degradation window.
	KindNetStart
	KindNetEnd
)

// Event is one compiled fault occurrence, campaign-relative.
type Event struct {
	AtS  float64
	Kind Kind
	// Node is the 0-based partition index for single-node kinds.
	Node int
	// BudgetW is set for KindPowerStep.
	BudgetW float64
	// LatencyMult/BandwidthMult/Slowdown are set for KindNetStart.
	LatencyMult   float64
	BandwidthMult float64
	Slowdown      float64
}

// Plan is a spec expanded against a concrete machine and seed: the sorted
// event timeline plus the static straggler assignment. Expansion happens
// once, before the engine runs, so the plan — and hence the simulation —
// is identical on every run.
type Plan struct {
	Events []Event
	// Stragglers maps 0-based node index to runtime slowdown factor.
	Stragglers map[int]float64
}

// Compile expands the spec into its deterministic plan. rng must be the
// campaign's stream factory (draws come from this package's dedicated
// streams, so compilation never perturbs the campaign's own draws).
func Compile(s *Spec, rng *sim.RNG, nodes int, horizonS float64) *Plan {
	p := &Plan{Stragglers: map[int]float64{}}
	if c := s.Crash; c != nil {
		// Exponential interarrivals per node, node by node in partition
		// order: the draw sequence depends only on the spec and seed.
		ratePerSec := 1 / (c.MTBFHours * 3600)
		for n := 0; n < nodes; n++ {
			t := 0.0
			for {
				t += rng.Stream(streamCrash).ExpFloat64() / ratePerSec
				if t >= horizonS {
					break
				}
				p.Events = append(p.Events, Event{AtS: t, Kind: KindCrash, Node: n})
			}
		}
	}
	if th := s.Thermal; th != nil {
		// Injection instants land in the first half of the horizon so the
		// trip + repair cycle fits before the campaign ends.
		for i := 0; i < th.Injections; i++ {
			at := rng.Stream(streamThermal).Float64() * horizonS / 2
			n := rng.Stream(streamThermal).Intn(nodes)
			p.Events = append(p.Events, Event{AtS: at, Kind: KindThermalInject, Node: n})
		}
	}
	for _, ps := range s.PowerSteps {
		p.Events = append(p.Events, Event{AtS: ps.AtS, Kind: KindPowerStep, BudgetW: ps.BudgetW})
	}
	for _, w := range s.Network {
		p.Events = append(p.Events, Event{
			AtS: w.StartS, Kind: KindNetStart,
			LatencyMult: w.latencyMult(), BandwidthMult: w.bandwidthMult(), Slowdown: w.slowdown(),
		})
		p.Events = append(p.Events, Event{AtS: w.StartS + w.DurationS, Kind: KindNetEnd})
	}
	if st := s.Stragglers; st != nil {
		// Rejection-sample distinct nodes; Count <= nodes is validated, so
		// this terminates, and the draw sequence stays seed-determined.
		for len(p.Stragglers) < st.Count {
			n := rng.Stream(streamStraggler).Intn(nodes)
			if _, dup := p.Stragglers[n]; !dup {
				p.Stragglers[n] = st.Slowdown
			}
		}
	}
	// Stable sort: same-instant events keep the class order above (crashes,
	// thermal, power, network), which is part of the determinism contract.
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].AtS < p.Events[j].AtS })
	return p
}
