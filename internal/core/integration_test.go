package core

import (
	"math"
	"testing"

	"montecimone/internal/examon"
	"montecimone/internal/hpl"
	"montecimone/internal/power"
	"montecimone/internal/sched"
	"montecimone/internal/soc"
	"montecimone/internal/spack"
	"montecimone/internal/stream"
	"montecimone/internal/thermal"
)

// TestPaperStoryEndToEnd replays the paper's narrative on one system:
// bring-up, software-stack deployment, benchmarks, the thermal incident,
// the mitigation, and the full-machine HPL result — all against the same
// virtual cluster, with the monitoring stack watching throughout.
func TestPaperStoryEndToEnd(t *testing.T) {
	// --- Section III/IV: assemble and boot the machine with monitoring.
	s, err := NewSystem(Options{Nodes: 8, HPMPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}

	// --- Section IV: deploy the software stack with Spack, targeting the
	// nodes' FU740 microarchitecture with the deployed GCC 10.3.0.
	installer, err := spack.NewInstaller(spack.BuiltinRepo(), soc.FU740().Microarch,
		spack.Compiler{Name: "gcc", Version: "10.3.0"})
	if err != nil {
		t.Fatal(err)
	}
	if installer.Triple() != "linux-sifive-u74mc" {
		t.Fatalf("triple = %s", installer.Triple())
	}
	stack, err := installer.InstallUserStack()
	if err != nil {
		t.Fatal(err)
	}
	if len(stack) != 9 {
		t.Fatalf("stack = %d packages", len(stack))
	}

	// --- Section V-A: model the benchmarks.
	single, err := hpl.Simulate(hpl.Config{N: PaperN, NB: PaperNB, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single.GFlops-1.86)/1.86 > 0.03 {
		t.Fatalf("single-node HPL = %.3f", single.GFlops)
	}
	streamRows, err := stream.Run(stream.Config{WorkingSetBytes: stream.DDRWorkingSetBytes})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(streamRows[0].MeanMBps-1206)/1206 > 0.03 {
		t.Fatalf("stream copy = %.0f", streamRows[0].MeanMBps)
	}

	// --- Section V-C / Fig. 6: the first full-machine HPL run with the
	// original enclosure, through the scheduler.
	job, err := s.Scheduler.Submit(sched.JobSpec{
		Name: "hpl-first", User: "bench", Nodes: 8, TimeLimit: 7200, Duration: 3700,
		OnStart: func(_ *sched.Job, nodes []int) {
			if err := s.Cluster.RunWorkloadOn(nodes, "hpl", power.ActivityHPL, hplMemBytes); err != nil {
				t.Errorf("workload: %v", err)
			}
		},
		OnEnd: func(j *sched.Job, _ sched.JobState) { s.Cluster.ClearWorkloadOn(j.Nodes()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7200; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
		if st := job.State(); st != sched.StateRunning && st != sched.StatePending {
			break
		}
	}
	if job.State() != sched.StateNodeFail {
		t.Fatalf("first run state = %s, want NODE_FAIL (node 7 trips)", job.State())
	}

	// The ODA pipeline saw it coming: the runaway detector flags mc07.
	detector := examon.Detector{Limit: thermal.TripTempC, Window: 12, RunawayHorizon: 240}
	findings, err := detector.ScanAll(s.DB, examon.Filter{Plugin: "dstat_pub", Metric: "temperature.cpu_temp"})
	if err != nil {
		t.Fatal(err)
	}
	sawRunaway := false
	for _, f := range findings {
		if f.Tags.Node == "mc07" && f.Kind == examon.AnomalyRunaway {
			sawRunaway = true
		}
	}
	if !sawRunaway {
		t.Error("anomaly detector missed the mc07 runaway")
	}

	// --- The fix: lids off, spacing increased, node returned to service.
	if err := s.Cluster.ApplyAirflowMitigation(); err != nil {
		t.Fatal(err)
	}
	s.Scheduler.NodeUp(6) // mc07
	if err := s.Advance(120); err != nil {
		t.Fatal(err)
	}

	// --- The re-run completes, and the modelled full-machine result
	// matches the paper's 12.65 GFLOP/s within tolerance.
	rerun, err := s.Scheduler.Submit(sched.JobSpec{
		Name: "hpl-fixed", User: "bench", Nodes: 8, TimeLimit: 7200, Duration: 3700,
		OnStart: func(_ *sched.Job, nodes []int) {
			if err := s.Cluster.RunWorkloadOn(nodes, "hpl", power.ActivityHPL, hplMemBytes); err != nil {
				t.Errorf("workload: %v", err)
			}
		},
		OnEnd: func(j *sched.Job, _ sched.JobState) { s.Cluster.ClearWorkloadOn(j.Nodes()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
		if st := rerun.State(); st != sched.StateRunning && st != sched.StatePending {
			break
		}
	}
	if rerun.State() != sched.StateCompleted {
		t.Fatalf("re-run state = %s", rerun.State())
	}
	full, err := hpl.Simulate(hpl.Config{N: PaperN, NB: PaperNB, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.GFlops-12.65)/12.65 > 0.05 {
		t.Fatalf("full-machine HPL = %.3f", full.GFlops)
	}

	// The monitoring database holds the whole story.
	if s.DB.SeriesCount() < 8*28 {
		t.Errorf("stored series = %d", s.DB.SeriesCount())
	}
	// And the IB cards are still waiting for their driver fix.
	ib, err := InfinibandStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ib.RDMAWorking {
		t.Error("RDMA should not work on the paper's stack")
	}
}
