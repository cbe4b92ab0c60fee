package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"montecimone/internal/examon"
)

// render runs the spec and returns the rendered report and event log with
// the result behind them.
func render(t *testing.T, spec Spec) (string, string, *Result) {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	var rep, log bytes.Buffer
	if err := res.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteEventLog(&log); err != nil {
		t.Fatal(err)
	}
	return rep.String(), log.String(), res
}

// assertShardsIgnored runs the spec at shards 0 and 4 and requires
// byte-identical reports and event logs: Spec.Shards is deprecated, still
// accepted, and has no effect. It returns the shards-0 rendering.
func assertShardsIgnored(t *testing.T, spec Spec) (string, string) {
	t.Helper()
	spec.Shards = 0
	rep0, log0, _ := render(t, spec)
	spec.Shards = 4
	rep, log, _ := render(t, spec)
	if rep != rep0 {
		t.Errorf("report diverges at shards=4:\n--- shards=0\n%s\n--- shards=4\n%s", rep0, rep)
	}
	if log != log0 {
		t.Errorf("event log diverges at shards=4:\n--- shards=0\n%s\n--- shards=4\n%s", log0, log)
	}
	return rep0, log0
}

// TestShardedWindowStats pins the deprecated engine-window counters on
// Result: the engine is serial and forms no windows, so they read 0 at
// every Shards value.
func TestShardedWindowStats(t *testing.T) {
	for _, shards := range []int{0, 4} {
		spec := mixedSpec("easy", 7)
		spec.Shards = shards
		_, _, res := render(t, spec)
		if res.Completed == 0 {
			t.Fatalf("shards=%d: campaign completed no jobs", shards)
		}
		if res.EngineWindows != 0 || res.WindowedEvents != 0 || res.CommittedEvents != 0 {
			t.Errorf("shards=%d: deprecated window counters %d/%d/%d, want 0/0/0",
				shards, res.EngineWindows, res.WindowedEvents, res.CommittedEvents)
		}
	}
}

// TestShardedCampaignByteIdentical pins the deprecated Shards field as
// accepted and ignored across the main campaign configurations: phased
// mix, fixed-activity ablation, monitor-on sampling, and the power plane.
func TestShardedCampaignByteIdentical(t *testing.T) {
	t.Run("phased", func(t *testing.T) {
		assertShardsIgnored(t, mixedSpec("easy", 11))
	})
	t.Run("fixed-activity", func(t *testing.T) {
		spec := mixedSpec("fifo", 5)
		spec.FixedActivity = true
		assertShardsIgnored(t, spec)
	})
	t.Run("monitor", func(t *testing.T) {
		spec := Spec{
			Name: "shard-mon", Nodes: 8, Seed: 3, HorizonS: 2500,
			Policy: "easy", Mitigated: true, Monitor: true,
			Arrival: &Arrival{Process: ProcessPoisson, RatePerHour: 120, Jobs: 5},
			Mix: []MixEntry{
				{Workload: "stream.ddr", Weight: 1, NodesMin: 1, NodesMax: 2, DurationS: 120},
				{Workload: "qe", Weight: 1, DurationS: 40},
			},
		}
		assertShardsIgnored(t, spec)
	})
	t.Run("powerplane", func(t *testing.T) {
		spec := Spec{
			Name: "shard-power", Nodes: 8, Seed: 9, HorizonS: 2500,
			Policy: "easy", Mitigated: true, PowerBudgetW: 40,
			Arrival: &Arrival{Process: ProcessPoisson, RatePerHour: 120, Jobs: 5},
			Mix: []MixEntry{
				{Workload: "hpl", Weight: 1, NodesMin: 2, NodesMax: 4, DurationS: 200},
				{Workload: "qe", Weight: 1, DurationS: 40},
			},
		}
		assertShardsIgnored(t, spec)
	})
}

// TestShardedCampaignRandomizedSpecs fuzzes the spec space with a fixed
// generator seed: random partition sizes, arrival rates, mixes and
// campaign seeds, each rendered at shards 0 and 4.
func TestShardedCampaignRandomizedSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized campaign sweep is slow")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3; i++ {
		nodes := 8 + rng.Intn(3)*4 // 8, 12 or 16
		spec := Spec{
			Name:      fmt.Sprintf("shard-fuzz-%d", i),
			Nodes:     nodes,
			Seed:      rng.Int63n(1 << 30),
			HorizonS:  6000,
			Policy:    []string{"easy", "fifo", "sjf"}[rng.Intn(3)],
			Mitigated: true,
			Arrival: &Arrival{
				Process:     ProcessPoisson,
				RatePerHour: 120 + float64(rng.Intn(240)),
				Jobs:        6 + rng.Intn(5),
			},
			Mix: []MixEntry{
				{Workload: "hpl", Weight: float64(1 + rng.Intn(3)), NodesMin: 2, NodesMax: 2 + rng.Intn(nodes-2), DurationS: 200 + float64(rng.Intn(200))},
				{Workload: "stream.ddr", Weight: float64(1 + rng.Intn(2)), NodesMin: 1, NodesMax: 2, DurationS: 120},
				{Workload: "qe", Weight: 1, DurationS: 40},
			},
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("generated spec %d invalid: %v", i, err)
		}
		t.Run(spec.Name, func(t *testing.T) {
			assertShardsIgnored(t, spec)
		})
	}
}

// TestScale10kShardInvariant is the 10k-node scale gate: the committed
// testdata/scale10k.json partition (10000 nodes, 4000 Poisson jobs) must
// run to completion and render byte-identical output at shards 0 and 4.
// Skipped under -short — each run takes seconds.
func TestScale10kShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node campaign is slow")
	}
	spec, err := Load("testdata/scale10k.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 10000 {
		t.Fatalf("scale10k spec has %d nodes, want 10000", spec.Nodes)
	}
	assertShardsIgnored(t, spec)
}

// TestCampaignConcurrentIngestQuery drives a monitor-on campaign while a
// reader goroutine hammers the TSDB — the race detector (CI runs the
// package under -race) checks the simulation's ingest against the storage
// engine's concurrent read paths.
func TestCampaignConcurrentIngestQuery(t *testing.T) {
	spec := Spec{
		Name: "ingest-race", Nodes: 8, Seed: 17, HorizonS: 1500,
		Policy: "easy", Mitigated: true, Monitor: true,
		Arrival: &Arrival{Process: ProcessPoisson, RatePerHour: 120, Jobs: 4},
		Mix: []MixEntry{
			{Workload: "stream.ddr", Weight: 1, NodesMin: 1, NodesMax: 2, DurationS: 120},
			{Workload: "qe", Weight: 1, DurationS: 40},
		},
	}
	r, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	db := r.System().DB
	done := make(chan struct{})
	queried := make(chan int, 1)
	go func() {
		defer close(done)
		n := 0
		for {
			select {
			case <-queried:
				return
			default:
			}
			for _, s := range db.Query(examon.Filter{Plugin: "pmu_pub", Metric: "INSTRET"}) {
				n += len(s.Points)
			}
			_ = db.SeriesCount()
		}
	}()
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	queried <- 0
	<-done
	res := r.Result()
	if res.Completed == 0 {
		t.Error("race campaign completed no jobs")
	}
}
