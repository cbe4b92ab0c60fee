package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"montecimone/internal/campaign"
	"montecimone/internal/sim"
)

// WorkerStats reports the parallel shape of a fleet run: the pool width
// actually used, the high-water mark of clusters executing concurrently,
// and the campaign count. On a single-core host MaxActive still reaches
// the pool width (goroutines interleave), so benchmarks report the
// available parallel width even where wall-clock cannot show it.
type WorkerStats struct {
	// Workers is the resolved pool width (after the 0 = GOMAXPROCS
	// default and the clamp to the cluster count).
	Workers int
	// Clusters is the fleet's cluster count.
	Clusters int
	// CampaignsRun counts the campaigns executed.
	CampaignsRun int
	// MaxActive is the high-water mark of concurrently executing
	// clusters — the realized parallel width.
	MaxActive int
}

// Fleet is a routed federation ready to run: the meta-scheduler's
// assignments, the per-cluster campaign queues and the shared telemetry
// federation. Build with New, execute with Run.
type Fleet struct {
	spec        Spec
	assignments []Assignment
	byCluster   [][]int // assignment indices per cluster, in routed order
	fed         *Federation
}

// New validates the spec and runs the routing pre-pass. All routing is
// complete when New returns: Run only executes the decided queues.
func New(spec Spec) (*Fleet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(spec.Seed)
	assignments, err := route(spec, rng)
	if err != nil {
		return nil, err
	}
	org := spec.Org
	if org == "" {
		org = DefaultOrg
	}
	f := &Fleet{
		spec:        spec,
		assignments: assignments,
		byCluster:   make([][]int, len(spec.Clusters)),
		fed:         NewFederation(org),
	}
	for i, a := range assignments {
		f.byCluster[a.ClusterIx] = append(f.byCluster[a.ClusterIx], i)
	}
	return f, nil
}

// Assignments returns the routing decisions in arrival order.
func (f *Fleet) Assignments() []Assignment {
	return append([]Assignment(nil), f.assignments...)
}

// Federation exposes the shared telemetry store for federated queries.
func (f *Fleet) Federation() *Federation { return f.fed }

// Run executes every cluster's routed campaign queue on a pool of
// workers (workers <= 0 takes one per CPU; the pool never exceeds the
// cluster count). Each cluster runs its campaigns sequentially on
// whichever worker claims it — clusters share nothing but the already-
// decided routing and the concurrent-safe federation store, so the
// result is byte-identical at any pool width.
func (f *Fleet) Run(workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(f.spec.Clusters) {
		workers = len(f.spec.Clusters)
	}
	results := make([]*campaign.Result, len(f.assignments))
	errs := make([]error, len(f.spec.Clusters))
	work := make(chan int, len(f.spec.Clusters))
	for ci := range f.spec.Clusters {
		work <- ci
	}
	close(work)

	var active, maxActive, campaignsRun atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range work {
				cur := active.Add(1)
				for prev := maxActive.Load(); cur > prev; prev = maxActive.Load() {
					if maxActive.CompareAndSwap(prev, cur) {
						break
					}
				}
				for _, ix := range f.byCluster[ci] {
					a := f.assignments[ix]
					res, err := campaign.Run(a.Campaign)
					if err != nil {
						errs[ci] = fmt.Errorf("fleet: cluster %s campaign %s: %w",
							a.ClusterID, a.Campaign.Name, err)
						break
					}
					results[ix] = res
					f.fed.Ingest(a, res)
					campaignsRun.Add(1)
				}
				active.Add(-1)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Result{
		Spec:        f.spec,
		Assignments: f.Assignments(),
		Campaigns:   results,
		Federation:  f.fed,
		Stats: WorkerStats{
			Workers:      workers,
			Clusters:     len(f.spec.Clusters),
			CampaignsRun: int(campaignsRun.Load()),
			MaxActive:    int(maxActive.Load()),
		},
	}, nil
}

// Run routes and executes a fleet spec start to finish.
func Run(spec Spec, workers int) (*Result, error) {
	f, err := New(spec)
	if err != nil {
		return nil, err
	}
	return f.Run(workers)
}
