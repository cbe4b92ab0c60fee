package campaign

import (
	"math"
	"testing"

	"montecimone/internal/node"
	"montecimone/internal/perf"
	"montecimone/internal/thermal"
)

// nodeReading is what integration leaves on one node, read through the
// public API.
type nodeReading struct {
	state          node.State
	temps          [3]float64
	stats          node.Stats
	cycles, instrs uint64
}

// TestUnobservedCampaignDefersPhysics: a mitigated campaign with
// monitoring, the power plane and faults off never reads a node while it
// drains, so Drain runs no Euler substep at all — every input change only
// records its interval. Reading every node afterwards replays the records
// and must return exactly what a run that integrated at every input
// change holds.
func TestUnobservedCampaignDefersPhysics(t *testing.T) {
	spec := mixedSpec("easy", 5)
	spec.Nodes, spec.Arrival.Jobs = 16, 24
	run := func(eager bool) []nodeReading {
		t.Helper()
		r, err := NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		c := r.System().Cluster
		if eager {
			for i := 0; i < c.Size(); i++ {
				nd := c.Node(i)
				// Read on every input change, integrating at each one. This
				// replaces the cluster's callback, which only re-plans the
				// node's watchdog; a mitigated campaign never needs one.
				nd.OnInputChange(func() {
					nd.Stats()
					if d := nd.NextDeadline(); !math.IsInf(d, 1) {
						t.Errorf("%s plans a watchdog at %v in a mitigated campaign", nd.Hostname(), d)
					}
				})
			}
		}
		before := c.ModelSteps()
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		steps := c.ModelSteps() - before
		switch {
		case !eager && steps != 0:
			t.Errorf("Drain ran %d substeps with nothing observing a node, want 0", steps)
		case eager && steps == 0:
			t.Error("the eager run integrated nothing during Drain")
		}
		if res := r.Result(); res.Completed == 0 {
			t.Fatal("campaign completed no jobs")
		}
		out := make([]nodeReading, c.Size())
		for i := range out {
			nd := c.Node(i)
			o := &out[i]
			o.state, o.stats = nd.State(), nd.Stats()
			for j, s := range thermal.Sensors {
				o.temps[j] = nd.Temperature(s)
			}
			if o.cycles, err = nd.PMU().Read(0, perf.EventCycle); err != nil {
				t.Fatal(err)
			}
			if o.instrs, err = nd.PMU().Read(0, perf.EventInstret); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	lazy, eager := run(false), run(true)
	for i := range lazy {
		if lazy[i] != eager[i] {
			t.Errorf("node %d: deferred %+v\neager %+v", i+1, lazy[i], eager[i])
		}
	}
}
