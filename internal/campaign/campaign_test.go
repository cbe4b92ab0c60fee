package campaign

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"montecimone/internal/sched"
)

// mixedSpec is a small generated campaign used across the suite: three
// workload classes over a Poisson stream, pinned durations so the whole
// thing drains fast.
func mixedSpec(policy string, seed int64) Spec {
	return Spec{
		Name: "test-mixed", Nodes: 12, Seed: seed, HorizonS: 8000,
		Policy: policy, Mitigated: true,
		Arrival: &Arrival{Process: ProcessPoisson, RatePerHour: 360, Jobs: 12},
		Mix: []MixEntry{
			{Workload: "hpl", Weight: 2, NodesMin: 2, NodesMax: 6, DurationS: 300},
			{Workload: "stream.ddr", Weight: 2, NodesMin: 1, NodesMax: 2, DurationS: 120},
			{Workload: "qe", Weight: 1, DurationS: 40},
		},
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the expected error
	}{
		{"unknown field", `{"name":"x","nodes":4,"horizon_s":10,"jobs":[],"rate":3}`, "rate"},
		{"storage backend", `{"name":"x","nodes":4,"horizon_s":10,"backend":"ring",
			"jobs":[{"name":"j","workload":"qe","nodes":1,"duration_s":5}]}`, "backend"},
		{"no jobs", `{"name":"x","nodes":4,"horizon_s":10}`, "needs explicit jobs"},
		{"unknown workload", `{"name":"x","nodes":4,"horizon_s":10,
			"arrival":{"process":"poisson","rate_per_hour":10,"jobs":2},
			"mix":[{"workload":"doom","weight":1}]}`, "unknown model"},
		{"unknown process", `{"name":"x","nodes":4,"horizon_s":10,
			"arrival":{"process":"fractal","rate_per_hour":10,"jobs":2},
			"mix":[{"workload":"qe","weight":1}]}`, "unknown arrival process"},
		{"unknown policy", `{"name":"x","nodes":4,"horizon_s":10,"policy":"lottery",
			"jobs":[{"name":"j","workload":"qe","nodes":1,"duration_s":5}]}`, "unknown policy"},
		{"wide job", `{"name":"x","nodes":4,"horizon_s":10,
			"jobs":[{"name":"j","workload":"qe","nodes":9,"duration_s":5}]}`, "outside [1,4]"},
		{"idle without duration", `{"name":"x","nodes":4,"horizon_s":10,
			"arrival":{"process":"poisson","rate_per_hour":10,"jobs":2},
			"mix":[{"workload":"idle","weight":1}]}`, "no runtime estimate"},
		{"trace job without timing", `{"name":"x","nodes":4,"horizon_s":10,
			"jobs":[{"name":"j","workload":"qe","nodes":1}]}`, "needs duration_s or time_limit_s"},
		{"negative power budget", `{"name":"x","nodes":4,"horizon_s":10,"power_budget_w":-5,"policy":"powercap",
			"jobs":[{"name":"j","workload":"qe","nodes":1,"duration_s":5}]}`, "power_budget_w must be >= 0"},
		{"negative shards", `{"name":"x","nodes":4,"horizon_s":10,"shards":-1,
			"jobs":[{"name":"j","workload":"qe","nodes":1,"duration_s":5}]}`, "shards must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatal("spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// The unknown-workload error must list the registry so a spec typo is
// self-explaining.
func TestUnknownWorkloadListsRegistry(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","nodes":4,"horizon_s":10,
		"jobs":[{"name":"j","workload":"doom","nodes":1,"duration_s":5}]}`))
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, name := range []string{"hpl", "stream.ddr", "qe", "idle"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// Same spec + seed ⇒ identical job stream; a different seed must move it.
func TestGenerateDeterminism(t *testing.T) {
	spec := mixedSpec("easy", 3)
	first, err := spec.GenerateJobs()
	if err != nil {
		t.Fatal(err)
	}
	second, err := spec.GenerateJobs()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("same seed generated different streams:\n%v\n%v", first, second)
	}
	other := mixedSpec("easy", 4)
	moved, err := other.GenerateJobs()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first) == fmt.Sprint(moved) {
		t.Error("different seeds generated identical streams")
	}
}

// Each arrival process must produce sane, ordered submission instants.
func TestArrivalProcesses(t *testing.T) {
	base := mixedSpec("easy", 5)
	for _, process := range []string{ProcessPoisson, ProcessBurst, ProcessDiurnal} {
		t.Run(process, func(t *testing.T) {
			spec := base
			spec.Arrival = &Arrival{Process: process, RatePerHour: 120, Jobs: 16, BurstSize: 4}
			jobs, err := spec.GenerateJobs()
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != 16 {
				t.Fatalf("generated %d jobs, want 16", len(jobs))
			}
			last := -1.0
			for _, j := range jobs {
				if j.SubmitS < last {
					t.Fatalf("submissions out of order: %v after %v", j.SubmitS, last)
				}
				last = j.SubmitS
				if j.DurationS <= 0 || j.TimeLimitS < j.DurationS {
					t.Errorf("job %s has duration %v limit %v", j.Name, j.DurationS, j.TimeLimitS)
				}
			}
			if process == ProcessBurst {
				// Groups of BurstSize share an instant.
				byTime := map[float64]int{}
				for _, j := range jobs {
					byTime[j.SubmitS]++
				}
				for at, n := range byTime {
					if n != 4 {
						t.Errorf("burst at t=%v has %d jobs, want 4", at, n)
					}
				}
			}
		})
	}
}

// Mix entries without a pinned duration draw it from the workload model's
// simulator-wired runtime estimate.
func TestGeneratedDurationFromModel(t *testing.T) {
	spec := Spec{
		Name: "est", Nodes: 2, Seed: 1, HorizonS: 100,
		Arrival: &Arrival{Process: ProcessPoisson, RatePerHour: 60, Jobs: 3},
		Mix:     []MixEntry{{Workload: "qe", Weight: 1}},
	}
	jobs, err := spec.GenerateJobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		// QE LAX on one node models ~37.4 s; jitter is a few percent.
		if j.DurationS < 30 || j.DurationS > 45 {
			t.Errorf("job %s duration %v, want ~37.4 s from the LAX model", j.Name, j.DurationS)
		}
	}
}

// Tentpole acceptance: same spec + seed ⇒ byte-identical report and event
// log across runs.
func TestCampaignDeterminism(t *testing.T) {
	render := func() (string, string) {
		res, err := Run(mixedSpec("easy", 11))
		if err != nil {
			t.Fatal(err)
		}
		var rep, log bytes.Buffer
		if err := res.WriteReport(&rep); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteEventLog(&log); err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 {
			t.Fatalf("campaign completed no jobs:\n%s", rep.String())
		}
		return rep.String(), log.String()
	}
	rep1, log1 := render()
	rep2, log2 := render()
	if rep1 != rep2 {
		t.Errorf("reports differ across runs:\n--- first\n%s\n--- second\n%s", rep1, rep2)
	}
	if log1 != log2 {
		t.Errorf("event logs differ across runs:\n--- first\n%s\n--- second\n%s", log1, log2)
	}
}

// Policy conformance over campaign-generated job streams: every
// registered policy must drain the same generated stream with no node
// double-allocated and no job left behind, deterministically.
func TestPolicyConformanceOnCampaignStreams(t *testing.T) {
	for _, policy := range sched.PolicyNames() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			run := func() *Result {
				res, err := Run(mixedSpec(policy, 23))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first := run()
			second := run()
			var b1, b2 bytes.Buffer
			if err := first.WriteReport(&b1); err != nil {
				t.Fatal(err)
			}
			if err := second.WriteReport(&b2); err != nil {
				t.Fatal(err)
			}
			if b1.String() != b2.String() {
				t.Errorf("policy %s: report not deterministic:\n%s\nvs\n%s", policy, b1.String(), b2.String())
			}
			checkInvariants(t, policy, first)
		})
	}
}

// checkInvariants asserts the shared scheduler invariants on a campaign
// outcome: every job reached a terminal state within the horizon and no
// host served two jobs at once.
func checkInvariants(t *testing.T, policy string, res *Result) {
	t.Helper()
	type interval struct {
		from, to float64
		name     string
	}
	perHost := map[string][]interval{}
	for _, j := range res.Jobs {
		switch j.State {
		case sched.StatePending, sched.StateRunning:
			t.Errorf("policy %s: job %s still %s at the horizon", policy, j.Name, j.State)
		}
		if j.StartS < 0 {
			continue
		}
		end := j.EndS
		if end < 0 {
			end = res.Spec.HorizonS
		}
		if len(j.Hosts) != j.Nodes {
			t.Errorf("policy %s: job %s ran on %d hosts, requested %d", policy, j.Name, len(j.Hosts), j.Nodes)
		}
		for _, h := range j.Hosts {
			perHost[h] = append(perHost[h], interval{j.StartS, end, j.Name})
		}
	}
	for host, ivs := range perHost {
		sort.Slice(ivs, func(i, k int) bool { return ivs[i].from < ivs[k].from })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].from < ivs[i-1].to {
				t.Errorf("policy %s: host %s double-allocated: %s [%.1f,%.1f) overlaps %s [%.1f,%.1f)",
					policy, host, ivs[i-1].name, ivs[i-1].from, ivs[i-1].to,
					ivs[i].name, ivs[i].from, ivs[i].to)
			}
		}
	}
}

// The checked-in smoke spec (CI runs it through mcsched -campaign) must
// load and complete work.
func TestSmokeSpecFile(t *testing.T) {
	spec, err := Load("testdata/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Error("smoke campaign completed no jobs")
	}
	var b bytes.Buffer
	if err := res.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"campaign \"smoke\"", "mix:", "State"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report missing %q:\n%s", want, b.String())
		}
	}
}

// An explicit trace with the fixed-activity ablation must run the same
// stream with no phase transitions (the benchmark's baseline) and still
// be deterministic.
func TestFixedActivityAblation(t *testing.T) {
	spec := mixedSpec("easy", 31)
	spec.FixedActivity = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Error("ablation campaign completed no jobs")
	}
	var b bytes.Buffer
	if err := res.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fixed activity (ablation)") {
		t.Errorf("report does not flag the ablation:\n%s", b.String())
	}
}
