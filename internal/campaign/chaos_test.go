package campaign

import (
	"strings"
	"testing"

	"montecimone/internal/fault"
	"montecimone/internal/sched"
)

// tripChainSpec is engineered so the full failure chain must fire: one
// full-machine HPL job running when the airflow fault lands (injections
// draw in the first half of the horizon, inside the job's run), no power
// plane (whose caps can hold the faulted node just under the trip), and a
// checkpointing requeue with time to complete after the repair.
func tripChainSpec(seed int64) Spec {
	return Spec{
		Name: "trip-chain", Nodes: 8, Seed: seed, HorizonS: 5000,
		Policy: "fifo", Mitigated: true,
		Faults: &fault.Spec{
			Thermal:     &fault.Thermal{Injections: 1, ExtraRthKW: 7, ExtraAirC: 20, RepairS: 300},
			Checkpoint:  true,
			CheckpointS: 200,
		},
		Jobs: []JobEntry{
			{Name: "hpl-full", Workload: "hpl", Nodes: 8, SubmitS: 0, DurationS: 3000, TimeLimitS: 6000},
		},
	}
}

// TestChaosTripChain drives thermal runaway end to end at campaign scale:
// airflow fault -> 107 degC halt -> NodeDown -> NODE_FAIL -> requeue ->
// repair -> NodeUp -> checkpointed restart -> completion, for several
// seeds.
func TestChaosTripChain(t *testing.T) {
	for _, seed := range []int64{11, 23} {
		spec := tripChainSpec(seed)
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		job := res.Jobs[0]
		if job.State != sched.StateCompleted {
			t.Fatalf("seed %d: hpl-full ended %s, want COMPLETED after requeue\n%s",
				seed, job.State, strings.Join(res.Events, "\n"))
		}
		if job.Requeues < 1 {
			t.Errorf("seed %d: job completed without a requeue — no trip fired", seed)
		}
		if job.DoneS <= 0 {
			t.Errorf("seed %d: checkpoint restart carried no progress (done=%v)", seed, job.DoneS)
		}
		if res.Fault == nil || res.Fault.Trips < 1 || res.Fault.Repairs < 1 {
			t.Fatalf("seed %d: fault stats missing the trip/repair: %+v", seed, res.Fault)
		}
		if res.Fault.MTTRS <= 300 {
			t.Errorf("seed %d: MTTR %.1f s, want > repair delay (repair + boot)", seed, res.Fault.MTTRS)
		}
		if res.AvailabilityPct >= 100 || res.AvailabilityPct < 90 {
			t.Errorf("seed %d: availability %.2f%%, want one short outage in (90,100)", seed, res.AvailabilityPct)
		}
		if res.GoodputPct <= 0 || res.GoodputPct >= 100 {
			t.Errorf("seed %d: goodput %.1f%%, want partial (lost work before the checkpoint)", seed, res.GoodputPct)
		}
		// The chain's stages must appear in causal order in the event log.
		// The scheduler's NODE_FAIL and requeue lines precede the fault
		// controller's trip line: the cluster notifies its halt subscribers
		// in wiring order, and the core wires the scheduler first.
		stages := []string{"fault  airflow", "state=NODE_FAIL", "requeue hpl-full",
			"fault  trip", "fault  repair", "fault  up", "state=COMPLETED"}
		pos := -1
		for _, stage := range stages {
			found := -1
			for i := pos + 1; i < len(res.Events); i++ {
				if strings.Contains(res.Events[i], stage) {
					found = i
					break
				}
			}
			if found < 0 {
				t.Fatalf("seed %d: stage %q missing (or out of order) in event log:\n%s",
					seed, stage, strings.Join(res.Events, "\n"))
			}
			pos = found
		}
	}
}

// TestChaosSmokeSpecShardInvariant runs the CI chaos smoke spec (all five
// fault classes), checks every fault class shows up, and requires
// byte-identical reports and event logs at shards 0 and 4.
func TestChaosSmokeSpecShardInvariant(t *testing.T) {
	spec, err := Load("testdata/chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	rep0, log0 := assertShardsIgnored(t, spec)
	for _, s := range []string{"fault  crash", "fault  airflow", "fault  trip", "fault  budget",
		"fault  net", "fault  straggler", "requeue"} {
		if !strings.Contains(log0, s) {
			t.Errorf("chaos smoke log missing %q", s)
		}
	}
	for _, s := range []string{"end states:", "faults:", "availability", "Retries"} {
		if !strings.Contains(rep0, s) {
			t.Errorf("chaos smoke report missing %q", s)
		}
	}
}

// TestFaultsOffIsAblation pins the no-faults path: a spec without the
// fault block must render no fault artifacts at all — no end-state line,
// no availability block, no Retries column — so pre-chaos reports stay
// byte-stable (CI additionally byte-diffs the real pre-PR output).
func TestFaultsOffIsAblation(t *testing.T) {
	spec := mixedSpec("easy", 11)
	rep, log, _ := render(t, spec)
	for _, s := range []string{"end states:", "faults:", "availability", "Retries", "fault  ", "requeue"} {
		if strings.Contains(rep, s) || strings.Contains(log, s) {
			t.Errorf("faults-off campaign rendered fault artifact %q", s)
		}
	}
}
