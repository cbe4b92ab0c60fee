package examon

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// Read-path equivalence suite: the index and rollup layers must be
// invisible in results. Every check compares a fast store (defaults:
// inverted index, rollup tiers) against the reference store
// (WithLinearScan, no rollups) fed the identical sample stream.
//
// Values and timestamps are dyadic rationals (quarters and halves) so
// every bucket sum is exact regardless of association — that makes the
// rollup-vs-raw comparison bit-identical, per the tier's documented
// exactness contract.

// reference returns the reference twin of the default store.
func reference() *MemStore {
	return NewMemStore(WithLinearScan(true), WithRollup(-1))
}

// fillRandom streams identical pseudo-random telemetry into both stores:
// dense 2 Hz series across nodes/plugins/cores/metrics, one out-of-order
// series, and one sparse series whose bucket span overflows the rollup
// tier (exercising the per-series raw fallback).
func fillRandom(rng *rand.Rand, stores ...*MemStore) {
	dyadic := func() float64 { return float64(rng.Intn(1<<20)) / 4 }
	var batch []Sample
	for n := 0; n < 5; n++ {
		for core := 0; core < 2; core++ {
			for _, metric := range []string{"instret", "cycle"} {
				tags := confTags(n, core, metric)
				for i := 0; i < 400; i++ {
					batch = append(batch, Sample{Tags: tags, T: float64(i) * 0.5, V: dyadic()})
				}
			}
		}
		tags := confTags(n, -1, "temperature.cpu_temp")
		for i := 0; i < 400; i++ {
			batch = append(batch, Sample{Tags: tags, T: float64(i) * 0.5, V: dyadic()})
		}
	}
	// Out-of-order arrivals: shuffled timestamps on one series.
	ooo := confTags(1, -1, "load_avg.1m")
	times := rng.Perm(300)
	for _, i := range times {
		batch = append(batch, Sample{Tags: ooo, T: float64(i) * 0.5, V: dyadic()})
	}
	// Sparse series spanning more buckets than maxRollupBuckets: the tier
	// drops itself and the series answers from raw points.
	sparse := confTags(2, -1, "uptime")
	batch = append(batch,
		Sample{Tags: sparse, T: 0, V: 1},
		Sample{Tags: sparse, T: float64(maxRollupBuckets+5) * DefaultRollupStep, V: 2},
		Sample{Tags: sparse, T: 120, V: 3}, // out-of-order after the drop
	)
	for _, st := range stores {
		for i := range batch {
			// Alternate single inserts and one-sample batches so both
			// ingest entry points maintain index and tiers.
			if i%2 == 0 {
				st.Insert(batch[i].Tags, batch[i].T, batch[i].V)
			} else {
				st.InsertBatch(batch[i : i+1])
			}
		}
	}
}

func equivalenceFilters() []Filter {
	core1 := 1
	return []Filter{
		{},
		{Node: "mc02"},
		{Node: "mc99"},
		{Plugin: "pmu_pub"},
		{Metric: "instret"},
		{Node: "mc01", Plugin: "pmu_pub", Metric: "cycle", Core: &core1},
		{Metric: "temperature.cpu_temp", From: 13, To: 107},
		{Node: "mc03", From: 60, To: 180},
	}
}

func TestReadPathEquivalence(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		fast, slow := NewMemStore(), reference()
		fillRandom(rng, fast, slow)

		if !reflect.DeepEqual(fast.Keys(), slow.Keys()) {
			t.Fatalf("keys diverge:\n%v\nvs\n%v", fast.Keys(), slow.Keys())
		}
		if fast.SeriesCount() != slow.SeriesCount() {
			t.Fatalf("series counts diverge: %d vs %d", fast.SeriesCount(), slow.SeriesCount())
		}
		for _, f := range equivalenceFilters() {
			if got, want := fast.Query(f), slow.Query(f); !reflect.DeepEqual(got, want) {
				t.Errorf("filter %+v: indexed Query diverges from linear scan", f)
			}
		}
	})
}

// TestQueryAggEquivalence is the randomized indexed-vs-linear and
// rollup-vs-raw check: every operator, aligned and unaligned steps,
// bounded and unbounded ranges. Results must be deeply (bit-)identical.
func TestQueryAggEquivalence(t *testing.T) {
	steps := []float64{0, 7, 60, 120, 180}
	ranges := [][2]float64{{0, 0}, {60, 240}, {13, 307}, {60, 0}, {120, 120.5}}
	t.Run("mem", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		fast, slow := NewMemStore(), reference()
		fillRandom(rng, fast, slow)
		type aggCase struct {
			f    Filter
			opts AggOptions
		}
		var cases []aggCase
		for _, f := range equivalenceFilters() {
			for _, op := range []AggOp{AggAvg, AggMin, AggMax, AggSum, AggRate} {
				for _, step := range steps {
					for _, tr := range ranges {
						q := f
						q.From, q.To = tr[0], tr[1]
						if f.From != 0 || f.To != 0 {
							q.From, q.To = f.From, f.To
						}
						cases = append(cases, aggCase{q, AggOptions{Op: op, Step: step}})
					}
				}
			}
		}
		for _, c := range cases {
			want, werr := QueryAgg(slow, c.f, c.opts)
			got, gerr := QueryAgg(fast, c.f, c.opts)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%+v %+v: error divergence %v vs %v", c.f, c.opts, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v %+v: fast path diverges from the reference store", c.f, c.opts)
			}
		}
	})
}

// TestRollupActuallyServes pins that aligned coarse-step aggregations
// really are answered from the rollup tier, not silently from raw points.
func TestRollupActuallyServes(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		st := NewMemStore()
		tags := confTags(1, 0, "instret")
		for i := 0; i < 1000; i++ {
			st.Insert(tags, float64(i)*0.5, float64(i))
		}
		before := st.rollupServed.Load()
		if _, err := QueryAgg(st, Filter{Metric: "instret", From: 0, To: 480},
			AggOptions{Op: AggAvg, Step: 60}); err != nil {
			t.Fatal(err)
		}
		if st.rollupServed.Load() == before {
			t.Error("aligned query did not touch the rollup tier")
		}
		// Unaligned step must fall back to raw.
		before = st.rollupServed.Load()
		if _, err := QueryAgg(st, Filter{Metric: "instret", From: 0, To: 480},
			AggOptions{Op: AggAvg, Step: 7}); err != nil {
			t.Fatal(err)
		}
		if st.rollupServed.Load() != before {
			t.Error("unaligned query was served from the rollup tier")
		}
	})
}

func TestRollupAlignment(t *testing.T) {
	for _, tc := range []struct {
		f    Filter
		opts AggOptions
		want bool
	}{
		{Filter{From: 0, To: 480}, AggOptions{Op: AggAvg, Step: 60}, true},
		{Filter{From: 60, To: 0}, AggOptions{Op: AggSum, Step: 120}, true},
		{Filter{From: 0, To: 480}, AggOptions{Op: AggRate, Step: 60}, false},
		{Filter{From: 0, To: 480}, AggOptions{Op: AggAvg, Step: 90}, false},
		{Filter{From: 30, To: 480}, AggOptions{Op: AggAvg, Step: 60}, false},
		{Filter{From: 0, To: 490}, AggOptions{Op: AggAvg, Step: 60}, false},
		{Filter{From: 0, To: 480}, AggOptions{Op: AggAvg, Step: 0}, false},
		{Filter{From: 0, To: 480}, AggOptions{Op: AggAvg, Step: 30}, false},
	} {
		if got := rollupAligned(tc.f, tc.opts, DefaultRollupStep); got != tc.want {
			t.Errorf("rollupAligned(%+v, %+v) = %v, want %v", tc.f, tc.opts, got, tc.want)
		}
	}
	if rollupAligned(Filter{From: 0, To: 480}, AggOptions{Op: AggAvg, Step: 60}, 0) {
		t.Error("disabled tier reported aligned")
	}
}

// TestParallelQueryDuringIngest hammers concurrent snapshot reads (and
// the rollup snapshot copies) while writers are appending: under -race
// this is the regression net for the lock-free read path. Results must
// stay ordered by series creation and aggregation must never error.
func TestParallelQueryDuringIngest(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		st := NewMemStore()
		const writers = 8
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				batch := make([]Sample, 0, 8)
				for i := 0; i < 400; i++ {
					batch = batch[:0]
					for core := 0; core < 4; core++ {
						batch = append(batch, Sample{
							Tags: confTags(w, core, "instret"),
							T:    float64(i) * 0.5, V: float64(i),
						})
					}
					st.InsertBatch(batch)
				}
			}(w)
		}
		var rwg sync.WaitGroup
		var readErr error
		var readMu sync.Mutex
		for r := 0; r < 4; r++ {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Yield once a round. A read never parks, so readers
					// that do not yield hold the CPUs the writers need: on
					// a 2-vCPU host under -race the test then ran about
					// 10 s for some 19,000 rounds, against under 1 s and
					// about 1,200 rounds with the yield.
					runtime.Gosched()
					// Aligned (rollup-served) and unaligned (raw)
					// aggregations plus a wide raw scan.
					for _, opts := range []AggOptions{
						{Op: AggMax, Step: 60},
						{Op: AggAvg, Step: 7},
						{Op: AggRate, Step: 30},
					} {
						agg, err := QueryAgg(st, Filter{Metric: "instret"}, opts)
						if err != nil {
							readMu.Lock()
							if readErr == nil {
								readErr = err
							}
							readMu.Unlock()
							return
						}
						for i := 1; i < len(agg); i++ {
							if agg[i].Tags == agg[i-1].Tags {
								readMu.Lock()
								if readErr == nil {
									readErr = fmt.Errorf("duplicate series %v in the result", agg[i].Tags)
								}
								readMu.Unlock()
								return
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		rwg.Wait()
		if readErr != nil {
			t.Fatal(readErr)
		}
		// After ingest quiesces, every series is aggregated.
		got, err := QueryAgg(st, Filter{Metric: "instret"}, AggOptions{Op: AggSum, Step: 60})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != writers*4 {
			t.Fatalf("aggregated %d series, want %d", len(got), writers*4)
		}
	})
}

// TestRollupOutOfOrderAndDrop pins the tier's edge cases directly:
// front-growth on out-of-order inserts and the overflow drop.
func TestRollupOutOfOrderAndDrop(t *testing.T) {
	r := newSeriesRollup(60)
	r.add(150, 2) // bucket 2
	r.add(30, 1)  // front growth to bucket 0
	r.add(70, 4)  // bucket 1
	r.add(155, 6) // back to bucket 2
	if r.first != 0 || len(r.buckets) != 3 {
		t.Fatalf("tier shape: first=%d len=%d", r.first, len(r.buckets))
	}
	if b := r.buckets[2]; b.n != 2 || b.sum != 8 || b.min != 2 || b.max != 6 {
		t.Errorf("bucket 2 = %+v", b)
	}
	r.add(float64(maxRollupBuckets+1)*60, 9) // overflow: tier drops
	if !r.dropped || r.buckets != nil {
		t.Errorf("tier not dropped on overflow: %+v", r)
	}
	r.add(10, 1) // no-op after drop
	if !r.dropped {
		t.Error("drop did not stick")
	}
	if r.snapshotRange(0, 0) != nil {
		t.Error("dropped tier produced a snapshot")
	}
}

// TestRollupOverflowGuards pins the int64-range guards on the tier: a
// step-aligned query bound far beyond int64 falls through to the raw
// path (instead of wrapping the bucket index and panicking), and an
// extreme sample timestamp drops the tier (instead of wrapping the
// growth arithmetic into a negative make).
func TestRollupOverflowGuards(t *testing.T) {
	st := NewMemStore()
	tags := confTags(1, -1, "m")
	st.Insert(tags, 60, 1)
	st.Insert(tags, 120, 2)
	hugeFrom := 60 * math.Pow(2, 64) // exactly step-aligned, beyond int64
	agg, err := QueryAgg(st, Filter{From: hugeFrom}, AggOptions{Op: AggAvg, Step: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 1 || len(agg[0].Points) != 0 {
		t.Errorf("huge-From aligned query = %+v, want one silent series", agg)
	}
	if rollupAligned(Filter{From: hugeFrom}, AggOptions{Op: AggAvg, Step: 60}, 60) {
		t.Error("int64-overflowing From reported rollup-aligned")
	}
	if rollupAligned(Filter{From: 0, To: hugeFrom}, AggOptions{Op: AggAvg, Step: 60}, 60) {
		t.Error("int64-overflowing To reported rollup-aligned")
	}

	// Extreme timestamps drop the tier; results still equal the raw twin.
	fast, slow := NewMemStore(), NewMemStore(WithLinearScan(true), WithRollup(-1))
	for _, s := range []*MemStore{fast, slow} {
		s.Insert(tags, 0, 1)
		s.Insert(tags, 1e300, 2)
		s.Insert(tags, -1e300, 3)
		s.Insert(tags, 60, 4)
	}
	got, err := QueryAgg(fast, Filter{From: 0, To: 120}, AggOptions{Op: AggSum, Step: 60})
	if err != nil {
		t.Fatal(err)
	}
	want, err := QueryAgg(slow, Filter{From: 0, To: 120}, AggOptions{Op: AggSum, Step: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-drop aggregation diverges: %+v vs %+v", got, want)
	}
}
