package montecimone_test

// One benchmark per table and figure of the paper's evaluation section
// (the experiment index is in DESIGN.md), plus the design-choice
// ablations. Each benchmark regenerates the artefact and reports the
// headline quantity as a custom metric so `go test -bench=.` doubles as
// the reproduction harness. Run with -v to see the regenerated rows.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"montecimone/internal/campaign"
	"montecimone/internal/cluster"
	"montecimone/internal/core"
	"montecimone/internal/examon"
	"montecimone/internal/fault"
	"montecimone/internal/fleet"
	"montecimone/internal/hpl"
	"montecimone/internal/mpi"
	"montecimone/internal/netsim"
	"montecimone/internal/sched"
	"montecimone/internal/sim"
	"montecimone/internal/soc"
	"montecimone/internal/stream"
	"montecimone/internal/thermal"
)

// BenchmarkTableI_SpackStack concretises and installs the Table I
// user-facing software stack for linux-sifive-u74mc.
func BenchmarkTableI_SpackStack(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		out, err := core.TableI()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(out)
	}
	b.ReportMetric(float64(rows), "packages")
}

// BenchmarkTableII_ExamonTopics validates the ExaMon topic/payload formats.
func BenchmarkTableII_ExamonTopics(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(core.TableII())
	}
	b.ReportMetric(float64(rows), "plugins")
}

// BenchmarkTableIII_StatsPub boots a monitored node and collects the 28
// stats_pub metrics.
func BenchmarkTableIII_StatsPub(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		out, err := core.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(out)
	}
	b.ReportMetric(float64(rows), "metrics")
}

// BenchmarkTableIV_HwmonSensors reads the three temperature sensors
// through their sysfs paths.
func BenchmarkTableIV_HwmonSensors(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		out, err := core.TableIV()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(out)
	}
	b.ReportMetric(float64(rows), "sensors")
}

// BenchmarkTableV_Stream regenerates the STREAM table (both working sets)
// and reports the DDR copy bandwidth.
func BenchmarkTableV_Stream(b *testing.B) {
	var copyMBps float64
	for i := 0; i < b.N; i++ {
		tbl, err := core.TableV(1)
		if err != nil {
			b.Fatal(err)
		}
		copyMBps = tbl.DDR[0].MeanMBps
	}
	b.ReportMetric(copyMBps, "copy-MB/s")
}

// BenchmarkTableVI_PowerRails regenerates the nine-rail power table and
// reports the HPL column total (paper: 5935 mW).
func BenchmarkTableVI_PowerRails(b *testing.B) {
	var hplTotal float64
	for i := 0; i < b.N; i++ {
		for _, col := range core.TableVI() {
			if col.Workload == "HPL" {
				hplTotal = col.TotalMilliwatts
			}
		}
	}
	b.ReportMetric(hplTotal, "HPL-mW")
}

// BenchmarkFig2_HPLScaling regenerates the strong-scaling series (ten
// repetitions per node count) and reports the 8-node mean (paper: 12.65).
func BenchmarkFig2_HPLScaling(b *testing.B) {
	var eight float64
	for i := 0; i < b.N; i++ {
		points, err := core.Fig2(1)
		if err != nil {
			b.Fatal(err)
		}
		eight = points[7].MeanGFlops
		if i == 0 {
			for _, p := range points {
				b.Logf("nodes=%d grid=%dx%d %.2f +- %.2f GFLOP/s (%.0f +- %.0f s)",
					p.Nodes, p.P, p.Q, p.MeanGFlops, p.StdGFlops, p.MeanSeconds, p.StdSeconds)
			}
		}
	}
	b.ReportMetric(eight, "GFLOPS-8node")
}

// BenchmarkFig3_PowerTraces regenerates the 8 s HPL power trace at 1 ms
// windows and reports the core-rail mean (paper: 4097 mW).
func BenchmarkFig3_PowerTraces(b *testing.B) {
	var coreMean float64
	for i := 0; i < b.N; i++ {
		traces, err := core.Fig3("hpl", 1)
		if err != nil {
			b.Fatal(err)
		}
		coreMean = traces.Traces.Lookup("core").Mean()
	}
	b.ReportMetric(coreMean, "core-mW")
}

// BenchmarkFig4_BootTrace regenerates the 80 s boot trace and reports the
// R2-minus-R1 clock-tree power (paper: 1577 mW).
func BenchmarkFig4_BootTrace(b *testing.B) {
	var clockTree float64
	for i := 0; i < b.N; i++ {
		bt, err := core.Fig4(1)
		if err != nil {
			b.Fatal(err)
		}
		clockTree = bt.R2Mean - bt.R1Mean
	}
	b.ReportMetric(clockTree, "clocktree-mW")
}

// BenchmarkFig5_ExamonHeatmap runs a monitored multi-node HPL playback and
// builds the three dashboard heatmaps.
func BenchmarkFig5_ExamonHeatmap(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		hm, err := core.Fig5(8, 1)
		if err != nil {
			b.Fatal(err)
		}
		peak = hm.InstructionsPerSec.MaxValue()
	}
	b.ReportMetric(peak/1e9, "Ginstr/s-peak")
}

// BenchmarkFig6_ThermalRunaway replays the node-7 thermal hazard and the
// airflow mitigation, reporting the post-fix hottest temperature
// (paper: 39 degC).
func BenchmarkFig6_ThermalRunaway(b *testing.B) {
	var after float64
	for i := 0; i < b.N; i++ {
		rep, err := core.Fig6(1)
		if err != nil {
			b.Fatal(err)
		}
		after = rep.PeakAfterMitigation
		if i == 0 {
			b.Logf("%s tripped at t=%.0f s; hottest %.1f degC before fix, %.1f degC after",
				rep.TrippedNode, rep.TripAt, rep.PeakBeforeMitigation, rep.PeakAfterMitigation)
		}
	}
	b.ReportMetric(after, "degC-after-fix")
}

// BenchmarkSec5A_HPLEfficiency regenerates the three-machine FPU
// utilisation comparison and reports Monte Cimone's (paper: 46.5 %).
func BenchmarkSec5A_HPLEfficiency(b *testing.B) {
	var mc float64
	for i := 0; i < b.N; i++ {
		rows, err := core.HPLEfficiencyComparison()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Machine == "Monte Cimone" {
				mc = 100 * r.Efficiency
			}
			if i == 0 {
				b.Logf("%s: %.2f%% (%.1f GFLOP/s)", r.Machine, 100*r.Efficiency, r.Attained)
			}
		}
	}
	b.ReportMetric(mc, "pct-of-peak")
}

// BenchmarkSec5A_StreamEfficiency regenerates the bandwidth-fraction
// comparison and reports Monte Cimone's (paper: 15.5 %).
func BenchmarkSec5A_StreamEfficiency(b *testing.B) {
	var mc float64
	for i := 0; i < b.N; i++ {
		rows, err := core.StreamEfficiencyComparison()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Machine == "Monte Cimone" {
				mc = 100 * r.Efficiency
			}
		}
	}
	b.ReportMetric(mc, "pct-of-peak")
}

// BenchmarkSec5A_QELax regenerates the LAX result (paper: 1.44 GFLOP/s).
func BenchmarkSec5A_QELax(b *testing.B) {
	var gf float64
	for i := 0; i < b.N; i++ {
		rep, err := core.QELax(1)
		if err != nil {
			b.Fatal(err)
		}
		gf = rep.MeanGFlops
	}
	b.ReportMetric(gf, "GFLOPS")
}

// BenchmarkSec3_InfinibandPing reproduces the HCA bring-up status: ping
// works, RDMA does not.
func BenchmarkSec3_InfinibandPing(b *testing.B) {
	var rttUs float64
	for i := 0; i < b.N; i++ {
		rep, err := core.InfinibandStatus()
		if err != nil {
			b.Fatal(err)
		}
		if rep.RDMAWorking {
			b.Fatal("RDMA unexpectedly working")
		}
		rttUs = rep.PingRTTSeconds * 1e6
	}
	b.ReportMetric(rttUs, "ping-us")
}

// --- Ablations (DESIGN.md section 4) ---

// BenchmarkAblation_Interconnect compares the measured GbE fabric against
// hypothetically working FDR InfiniBand for the 8-node HPL run.
func BenchmarkAblation_Interconnect(b *testing.B) {
	ib := netsim.InfinibandFDRWorking()
	var speedup float64
	for i := 0; i < b.N; i++ {
		gbe, err := hpl.Simulate(hpl.Config{N: core.PaperN, NB: core.PaperNB, Nodes: 8})
		if err != nil {
			b.Fatal(err)
		}
		fast, err := hpl.Simulate(hpl.Config{N: core.PaperN, NB: core.PaperNB, Nodes: 8, Link: &ib})
		if err != nil {
			b.Fatal(err)
		}
		speedup = fast.GFlops / gbe.GFlops
	}
	b.ReportMetric(speedup, "IB/GbE")
}

// BenchmarkAblation_Prefetcher sweeps prefetcher utilisation on the
// DDR-resident STREAM run (paper hypothesis (i) in Section V-A).
func BenchmarkAblation_Prefetcher(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		base, err := stream.Run(stream.Config{WorkingSetBytes: stream.DDRWorkingSetBytes})
		if err != nil {
			b.Fatal(err)
		}
		tuned, err := stream.Run(stream.Config{
			WorkingSetBytes: stream.DDRWorkingSetBytes,
			Opts:            soc.StreamOptions{PrefetchUtilisation: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		gain = tuned[3].MeanMBps / base[3].MeanMBps // triad
		if i == 0 {
			for u := 0.0; u <= 1.0; u += 0.25 {
				r, err := stream.Run(stream.Config{
					WorkingSetBytes: stream.DDRWorkingSetBytes,
					Opts:            soc.StreamOptions{PrefetchUtilisation: u},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.Logf("prefetch utilisation %.2f: triad %.0f MB/s (%.1f%% of peak)",
					u, r[3].MeanMBps, 100*r[3].EfficiencyOfPeak)
			}
		}
	}
	b.ReportMetric(gain, "triad-gain")
}

// BenchmarkAblation_HPLBlockSize sweeps NB around the paper's 192.
func BenchmarkAblation_HPLBlockSize(b *testing.B) {
	nbs := []int{32, 96, 192, 384, 768}
	var best float64
	for i := 0; i < b.N; i++ {
		best = 0
		for _, nb := range nbs {
			r, err := hpl.Simulate(hpl.Config{N: 16384, NB: nb, Nodes: 8})
			if err != nil {
				b.Fatal(err)
			}
			if r.GFlops > best {
				best = r.GFlops
			}
			if i == 0 {
				b.Logf("NB=%d: %.2f GFLOP/s", nb, r.GFlops)
			}
		}
	}
	b.ReportMetric(best, "best-GFLOPS")
}

// BenchmarkAblation_Backfill compares campaign makespan with and without
// EASY backfill on the production scheduler.
func BenchmarkAblation_Backfill(b *testing.B) {
	runCampaign := func(pol sched.Policy) float64 {
		engine := sim.NewEngine()
		hosts := make([]string, 8)
		for i := range hosts {
			hosts[i] = string(rune('a' + i))
		}
		s, err := sched.New(engine, "p", hosts, sched.WithPolicy(pol))
		if err != nil {
			b.Fatal(err)
		}
		specs := []sched.JobSpec{
			{Name: "wide", Nodes: 6, TimeLimit: 4000, Duration: 3600},
			{Name: "huge", Nodes: 8, TimeLimit: 4000, Duration: 1800},
			{Name: "s1", Nodes: 1, TimeLimit: 300, Duration: 240},
			{Name: "s2", Nodes: 2, TimeLimit: 600, Duration: 500},
			{Name: "s3", Nodes: 1, TimeLimit: 900, Duration: 850},
		}
		for _, spec := range specs {
			if _, err := s.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
		if err := engine.Run(); err != nil {
			b.Fatal(err)
		}
		return engine.Now()
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		with := runCampaign(sched.EASY())
		without := runCampaign(sched.FIFO())
		ratio = without / with
		if i == 0 {
			b.Logf("makespan: backfill %.0f s, FIFO-only %.0f s", with, without)
		}
	}
	b.ReportMetric(ratio, "fifo/backfill")
}

// BenchmarkScheduler_PolicyThroughput drains a backfill-heavy synthetic
// campaign (4 jobs per node, periodic wide blockers) at 8, 64 and 512
// nodes under every registered policy, reporting drained jobs per
// wall-clock second. The "easy-rescan" case runs the EASY policy on the
// seed's O(n) partition-rescan structures instead of the indexed free-node
// set and release heap — the ablation that must lose at 512 nodes.
func BenchmarkScheduler_PolicyThroughput(b *testing.B) {
	drain := func(b *testing.B, nodes int, opts ...sched.Option) int {
		b.Helper()
		engine := sim.NewEngine()
		hosts := make([]string, nodes)
		for i := range hosts {
			hosts[i] = fmt.Sprintf("syn%04d", i+1)
		}
		s, err := sched.New(engine, "bench", hosts, opts...)
		if err != nil {
			b.Fatal(err)
		}
		jobs := 4 * nodes
		for i := 0; i < jobs; i++ {
			spec := sched.JobSpec{
				Name:      "j",
				Nodes:     1 + (i*5)%8,
				TimeLimit: 60 + float64((i*37)%240),
			}
			if i%16 == 0 {
				spec.Nodes = nodes/2 + 1 // wide blocker forces backfill scans
				spec.TimeLimit = 600
			}
			spec.Duration = spec.TimeLimit * 0.8
			if _, err := s.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
		if err := engine.Run(); err != nil {
			b.Fatal(err)
		}
		return jobs
	}
	for _, nodes := range []int{8, 64, 512} {
		cases := []struct {
			name string
			opts []sched.Option
		}{
			{"fifo", []sched.Option{sched.WithPolicy(sched.FIFO())}},
			{"easy", []sched.Option{sched.WithPolicy(sched.EASY())}},
			{"sjf", []sched.Option{sched.WithPolicy(sched.SJF())}},
			{"bestfit", []sched.Option{sched.WithPolicy(sched.BestFit())}},
			{"easy-rescan", []sched.Option{sched.WithPolicy(sched.EASY()), sched.WithLinearScan(true)}},
		}
		for _, tc := range cases {
			tc := tc
			b.Run(fmt.Sprintf("%s/%dnodes", tc.name, nodes), func(b *testing.B) {
				jobs := 0
				for i := 0; i < b.N; i++ {
					jobs += drain(b, nodes, tc.opts...)
				}
				b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
			})
		}
	}
}

// BenchmarkAblation_CodeModel compares the medany cap against the
// large-code-model workaround for the STREAM working set.
func BenchmarkAblation_CodeModel(b *testing.B) {
	var capGiB float64
	for i := 0; i < b.N; i++ {
		m := soc.FU740()
		capped := m.MaxStreamArrayBytes(soc.StreamOptions{})
		lifted := m.MaxStreamArrayBytes(soc.StreamOptions{LargeCodeModel: true})
		if lifted <= capped {
			b.Fatal("workaround did not lift the cap")
		}
		capGiB = float64(3*capped) / float64(soc.GiB)
	}
	b.ReportMetric(capGiB, "medany-cap-GiB")
}

// BenchmarkExtension_DTM runs node 7 (original enclosure) under the
// thermal-capping DVFS governor — the paper's future-work dynamic thermal
// management — and reports the average operating point that keeps it
// alive.
func BenchmarkExtension_DTM(b *testing.B) {
	var meanScale float64
	for i := 0; i < b.N; i++ {
		rep, err := core.DTMStudy(0)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Survived {
			b.Fatal("node 7 tripped despite the governor")
		}
		meanScale = rep.MeanScale
		if i == 0 {
			b.Logf("node 7 survives at %.1f degC, mean DVFS scale %.2f, %.0f s throttled",
				rep.SteadyTempC, rep.MeanScale, rep.ThrottledSeconds)
		}
	}
	b.ReportMetric(meanScale, "mean-scale")
}

// BenchmarkExtension_AnomalyDetection replays the thermal incident with
// the ODA runaway detector watching and reports the warning lead time.
func BenchmarkExtension_AnomalyDetection(b *testing.B) {
	var lead float64
	for i := 0; i < b.N; i++ {
		rep, err := core.ThermalAnomalyScan(1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.DetectedAt < 0 {
			b.Fatal("runaway not detected")
		}
		lead = rep.LeadSeconds
		if i == 0 {
			b.Logf("mc07 runaway flagged at t=%.0f s, trip at t=%.0f s (%.0f s lead)",
				rep.DetectedAt, rep.TripAt, rep.LeadSeconds)
		}
	}
	b.ReportMetric(lead, "lead-s")
}

// BenchmarkExtension_EnergyToSolution reports the RISC-V node's HPL
// energy efficiency derived from the Table VI power model and the run
// model.
func BenchmarkExtension_EnergyToSolution(b *testing.B) {
	var gfw float64
	for i := 0; i < b.N; i++ {
		rep, err := core.EnergyToSolution()
		if err != nil {
			b.Fatal(err)
		}
		gfw = rep.SingleNodeGFlopsPerWatt
		if i == 0 {
			b.Logf("single node: %.0f kJ, %.3f GFLOPS/W; full machine: %.0f kJ, %.3f GFLOPS/W",
				rep.SingleNodeKJ, rep.SingleNodeGFlopsPerWatt,
				rep.FullMachineKJ, rep.FullMachineGFlopsPerWatt)
		}
	}
	b.ReportMetric(gfw, "GFLOPS/W")
}

// BenchmarkExtension_Accelerator projects the future-work PCIe RISC-V
// vector accelerator onto a node's HPL run.
func BenchmarkExtension_Accelerator(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rep, err := core.AcceleratorStudy()
		if err != nil {
			b.Fatal(err)
		}
		speedup = rep.Speedup
		if i == 0 {
			b.Logf("%s: %.1f -> %.1f GFLOP/s (%.1fx, %s-bound), %.2f -> %.2f GFLOPS/W",
				rep.Card, rep.HostGFlops, rep.AccelGFlops, rep.Speedup, rep.Bound,
				rep.HostGFlopsPerWatt, rep.AccelGFlopsPerWatt)
		}
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkExtension_MPIPingPong runs the OSU-style microbenchmark over
// the simulated GbE fabric, validating the network model end to end
// through the MPI stack.
func BenchmarkExtension_MPIPingPong(b *testing.B) {
	fabric, err := netsim.NewFabric(2, netsim.GigabitEthernet())
	if err != nil {
		b.Fatal(err)
	}
	var latUs float64
	for i := 0; i < b.N; i++ {
		world, err := mpi.NewWorld(fabric, []int{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		var res mpi.PingPongResult
		err = world.Run(func(p *mpi.Proc) error {
			r, err := mpi.PingPong(p, 1, 1000)
			if err != nil {
				return err
			}
			if p.Rank() == 0 {
				res = r
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		latUs = res.LatencySec * 1e6
	}
	b.ReportMetric(latUs, "oneway-us")
}

// BenchmarkTelemetryIngest measures the telemetry ingest path — one
// PublishBatch per node per tick flowing straight into storage as Sample
// values. 64 synthetic nodes, 4 cores, 2 counters each: one benchmark
// iteration ingests one cluster-wide tick (512 samples). "parallel8"
// publishes from 8 goroutines into one store, the concurrent-ingest shape
// of fleet federation.
func BenchmarkTelemetryIngest(b *testing.B) {
	const (
		nodes = 64
		cores = 4
	)
	metrics := []string{"instret", "cycle"}
	hosts := make([]string, nodes)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("syn%03d", i+1)
	}
	perTick := nodes * cores * len(metrics)

	attach := func(b *testing.B, st examon.Storage) *examon.Broker {
		b.Helper()
		broker := examon.NewBroker()
		db, err := examon.NewTSDBOn(st)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Attach(broker); err != nil {
			b.Fatal(err)
		}
		return broker
	}
	check := func(b *testing.B, st examon.Storage) {
		b.Helper()
		if got := st.SeriesCount(); got != perTick {
			b.Fatalf("stored %d series, want %d", got, perTick)
		}
	}

	runTyped := func(b *testing.B, st examon.Storage, workers int) {
		broker := attach(b, st)
		publishHosts := func(myHosts []string, n int) {
			batch := make([]examon.Sample, 0, cores*len(metrics))
			for i := 0; i < n; i++ {
				now := float64(i)
				for _, host := range myHosts {
					batch = batch[:0]
					for core := 0; core < cores; core++ {
						for _, m := range metrics {
							batch = append(batch, examon.Sample{
								Tags: examon.Tags{Org: "unibo", Cluster: "syn", Node: host,
									Plugin: "pmu_pub", Core: core, Metric: m},
								T: now, V: float64(i),
							})
						}
					}
					if err := broker.PublishBatch(batch); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}
		b.ResetTimer()
		if workers <= 1 {
			publishHosts(hosts, b.N)
		} else {
			var wg sync.WaitGroup
			per := nodes / workers
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(myHosts []string) {
					defer wg.Done()
					publishHosts(myHosts, b.N)
				}(hosts[w*per : (w+1)*per])
			}
			wg.Wait()
		}
		b.StopTimer()
		check(b, st)
		b.ReportMetric(float64(perTick*b.N)/b.Elapsed().Seconds(), "samples/s")
	}

	b.Run("typed/mem/64nodes", func(b *testing.B) { runTyped(b, examon.NewMemStore(), 1) })
	b.Run("typed/mem/parallel8/64nodes", func(b *testing.B) { runTyped(b, examon.NewMemStore(), 8) })
}

// BenchmarkCampaignThroughput drives generated mixed-workload campaigns
// through the full stack — seeded Poisson job stream over the workload
// registry, scheduler, cluster physics, phased workload execution — at 64
// and 512 nodes, reporting drained jobs per wall-clock second. Each
// iteration submits 2 jobs per node (~70 % HPL node-seconds) and must
// drain them all within the horizon. The "fixed" cases run the
// fixed-activity ablation: jobs hold their steady Table VI profile, no
// phase-transition events — the baseline that prices the phased
// co-simulation.
func BenchmarkCampaignThroughput(b *testing.B) {
	mkSpec := func(nodes int, fixed bool) campaign.Spec {
		return campaign.Spec{
			Name: "bench", Nodes: nodes, Seed: 1, HorizonS: 40000,
			Mitigated: true, FixedActivity: fixed,
			Arrival: &campaign.Arrival{
				Process: campaign.ProcessPoisson, RatePerHour: float64(nodes) * 30, Jobs: 2 * nodes,
			},
			Mix: []campaign.MixEntry{
				{Workload: "hpl", Weight: 3, NodesMin: 2, NodesMax: 8, DurationS: 600},
				{Workload: "stream.ddr", Weight: 2, NodesMin: 1, NodesMax: 2, DurationS: 180},
				{Workload: "stream.l2", Weight: 1, DurationS: 180},
				{Workload: "qe", Weight: 2, DurationS: 40},
			},
		}
	}
	runSpec := func(b *testing.B, spec campaign.Spec) {
		jobs := 0
		for i := 0; i < b.N; i++ {
			res, err := campaign.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Unfinished > 0 {
				b.Fatalf("%d jobs unfinished at the horizon", res.Unfinished)
			}
			jobs += len(res.Jobs)
		}
		b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
	}
	for _, nodes := range []int{64, 512} {
		for _, mode := range []struct {
			name  string
			fixed bool
		}{{"phased", false}, {"fixed", true}} {
			mode := mode
			b.Run(fmt.Sprintf("%s/%dnodes", mode.name, nodes), func(b *testing.B) {
				runSpec(b, mkSpec(nodes, mode.fixed))
			})
		}
	}
	// Chaos cases: the same phased campaign with the fault subsystem armed
	// — crash/reboot cycles, thermal runaway injections, a network window,
	// stragglers, requeue + checkpoint — pricing the fault timeline, the
	// trip/repair machinery and the requeue path on top of the co-sim.
	// Faulted campaigns may legitimately leave retried work unfinished at
	// the horizon, so unlike runSpec these cases report (not assert) the
	// completed-job drain rate.
	runChaos := func(b *testing.B, spec campaign.Spec) {
		completed := 0
		for i := 0; i < b.N; i++ {
			res, err := campaign.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Fault == nil {
				b.Fatal("fault stats missing from chaos campaign result")
			}
			completed += res.EndStates[sched.StateCompleted]
		}
		b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "jobs/s")
	}
	for _, nodes := range []int{64, 512} {
		nodes := nodes
		b.Run(fmt.Sprintf("chaos/%dnodes", nodes), func(b *testing.B) {
			spec := mkSpec(nodes, false)
			spec.Faults = &fault.Spec{
				Crash:      &fault.Crash{MTBFHours: 6, RebootS: 120},
				Thermal:    &fault.Thermal{Injections: nodes / 16, ExtraRthKW: 7, ExtraAirC: 20, RepairS: 300},
				Network:    []fault.NetWindow{{StartS: 4000, DurationS: 2000, LatencyMult: 8, BandwidthMult: 0.25}},
				Stragglers: &fault.Stragglers{Count: nodes / 32, Slowdown: 1.3},
				Checkpoint: true, CheckpointS: 300,
			}
			runChaos(b, spec)
		})
	}
}

// BenchmarkFleetThroughput drives the federated multi-cluster runner at
// 1, 2, 4 and 8 clusters, each fleet carrying two campaigns per cluster
// (the meta-scheduler's queue penalty spreads them evenly across the
// identical clusters), at worker-pool widths 1 and one-per-cluster. The
// jobs/s metric is drained jobs per wall-clock second across the whole
// fleet; width is the realized high-water mark of concurrently executing
// clusters. Routing is a serial pre-pass, so per-campaign cost must stay
// flat as the cluster count grows — the fleet axis adds no cross-cluster
// coordination — and on multi-core hosts jobs/s scales with workers
// (single-core CI sees flat cost only; width still reports the available
// parallelism).
func BenchmarkFleetThroughput(b *testing.B) {
	mkFleet := func(clusters int) fleet.Spec {
		s := fleet.Spec{Name: "bench", Seed: 1}
		for i := 0; i < clusters; i++ {
			s.Clusters = append(s.Clusters, fleet.ClusterSpec{
				ID: fmt.Sprintf("c%02d", i), Nodes: 8, Mitigated: true,
			})
		}
		var subs []fleet.Submission
		for i := 0; i < 2*clusters; i++ {
			subs = append(subs, fleet.Submission{
				// Arrivals 1 s apart: every campaign is routed while its
				// predecessors are still resident, so the queue penalty
				// round-robins them across the identical clusters.
				ArriveS: float64(i),
				Spec: campaign.Spec{
					Name: fmt.Sprintf("camp%02d", i), HorizonS: 2000,
					Jobs: []campaign.JobEntry{
						{Name: "a", Workload: "qe", Nodes: 2, SubmitS: 0, DurationS: 120},
						{Name: "b", Workload: "stream.ddr", Nodes: 1, SubmitS: 60, DurationS: 180},
						{Name: "c", Workload: "stream.l2", Nodes: 2, SubmitS: 120, DurationS: 150},
						{Name: "d", Workload: "qe", Nodes: 4, SubmitS: 200, DurationS: 100},
					},
				},
			})
		}
		s.Tenants = []fleet.TenantSpec{{Name: "bench", Campaigns: subs}}
		return s
	}
	for _, clusters := range []int{1, 2, 4, 8} {
		workerCases := []int{1}
		if clusters > 1 {
			workerCases = append(workerCases, clusters)
		}
		for _, workers := range workerCases {
			clusters, workers := clusters, workers
			b.Run(fmt.Sprintf("clusters%d/workers%d", clusters, workers), func(b *testing.B) {
				spec := mkFleet(clusters)
				jobs, width := 0, 0
				for i := 0; i < b.N; i++ {
					res, err := fleet.Run(spec, workers)
					if err != nil {
						b.Fatal(err)
					}
					for _, cres := range res.Campaigns {
						if cres.Unfinished > 0 {
							b.Fatalf("%d jobs unfinished at the horizon", cres.Unfinished)
						}
						jobs += len(cres.Jobs)
					}
					if res.Stats.MaxActive > width {
						width = res.Stats.MaxActive
					}
				}
				b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
				b.ReportMetric(float64(width), "width")
			})
		}
	}
}

// BenchmarkAblation_Airflow sweeps the enclosure configurations: steady
// HPL temperature of the worst slot, lid on (runaway) vs lid off.
func BenchmarkAblation_Airflow(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		on, err := thermal.NewModel(thermal.Enclosure{AmbientC: 25, LidOn: true}, 2)
		if err != nil {
			b.Fatal(err)
		}
		off, err := thermal.NewModel(thermal.Enclosure{AmbientC: 25, LidOn: false}, 2)
		if err != nil {
			b.Fatal(err)
		}
		hot, _ := on.SteadyStateCPU(5.935)
		cool, _ := off.SteadyStateCPU(5.935)
		delta = hot - cool
		if i == 0 {
			m7on, err := thermal.NewModel(thermal.Enclosure{AmbientC: 25, LidOn: true}, 6)
			if err != nil {
				b.Fatal(err)
			}
			t7, stable := m7on.SteadyStateCPU(5.935)
			b.Logf("centre slot: %.1f degC lid-on vs %.1f degC lid-off; slot 7 lid-on: %.0f degC stable=%v",
				hot, cool, t7, stable)
		}
	}
	b.ReportMetric(delta, "degC-saved")
}

// BenchmarkPhysicsStep measures the demand-driven physics refactor
// against the cluster.WithLockStep ablation: an idle partition observed
// at the telemetry rate (2 Hz per node), integrated over a 600 s window
// after the thermal transients settle. The model-steps metric is the
// physics cost; the acceptance floor is a 5x reduction at 512 nodes, and
// in practice the settled window collapses to the handful of partial
// catch-up steps the observations themselves request.
func BenchmarkPhysicsStep(b *testing.B) {
	for _, mode := range []struct {
		name string
		lock bool
	}{{"demand", false}, {"lockstep", true}} {
		for _, nodes := range []int{8, 64, 512, 1024} {
			b.Run(fmt.Sprintf("%s/nodes=%d", mode.name, nodes), func(b *testing.B) {
				e := sim.NewEngine()
				c, err := cluster.New(e, cluster.Config{
					Nodes: nodes, SyntheticSlots: nodes > cluster.DefaultNodes, LockStep: mode.lock,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Stop()
				if err := c.BootAndSettle(1); err != nil {
					b.Fatal(err)
				}
				if _, err := sim.NewTicker(e, e.Now()+0.5, 0.5, "obs", func(now float64) {
					for i := 0; i < c.Size(); i++ {
						c.Node(i).SyncTo(now)
					}
				}); err != nil {
					b.Fatal(err)
				}
				if err := e.RunUntil(e.Now() + 1600); err != nil { // settle past the thermal taus
					b.Fatal(err)
				}
				start := c.ModelSteps()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.RunUntil(e.Now() + 600); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				steps := float64(c.ModelSteps()-start) / float64(b.N)
				b.ReportMetric(steps, "model-steps/window")
				b.ReportMetric(steps/float64(nodes), "steps/node-window")
			})
		}
	}
}

// BenchmarkQueryServe drives concurrent dashboard-style load against the
// telemetry read path during live ingest: selective per-node REST queries
// (aggregated and raw) plus periodic whole-cluster heatmap rebuilds, at
// 64 and 512 synthetic nodes with the deployment's realistic series
// density (8 PMU counters x 8 harts + 32 stats_pub metrics + cpu_temp =
// 97 series per node, ~50k series at 512 nodes). "indexed" runs the
// default read path — inverted tag index, snapshot fan-out across cores,
// ingest-time rollup tiers — "linear" runs the reference store
// (examon.WithLinearScan plus WithRollup(-1): every series walked per
// query, raw-only aggregation), mirroring the scheduler's easy-rescan
// ablation. Acceptance floor: the indexed selective path serves >= 10x
// the linear queries/s at 512 nodes.
func BenchmarkQueryServe(b *testing.B) {
	const (
		cores       = 8
		pmuMetrics  = 8
		statMetrics = 32
		ticks       = 120 // 2 Hz -> 60 s of history, one full rollup bucket
	)
	pmu := make([]string, pmuMetrics)
	pmu[0], pmu[1] = "instret", "cycle"
	for i := 2; i < pmuMetrics; i++ {
		pmu[i] = fmt.Sprintf("hpm%02d", i)
	}
	stats := make([]string, statMetrics)
	for i := range stats {
		stats[i] = fmt.Sprintf("stat%02d", i)
	}
	mkHosts := func(nodes int) []string {
		hosts := make([]string, nodes)
		for i := range hosts {
			hosts[i] = fmt.Sprintf("syn%04d", i+1)
		}
		return hosts
	}
	clusterTick := func(st examon.Storage, hosts []string, tick int) {
		now := float64(tick) * 0.5
		batch := make([]examon.Sample, 0, cores*pmuMetrics+statMetrics+1)
		for _, host := range hosts {
			batch = batch[:0]
			for core := 0; core < cores; core++ {
				for _, m := range pmu {
					batch = append(batch, examon.Sample{
						Tags: examon.Tags{Org: "unibo", Cluster: "syn", Node: host,
							Plugin: "pmu_pub", Core: core, Metric: m},
						T: now, V: float64(tick * 100),
					})
				}
			}
			for _, m := range stats {
				batch = append(batch, examon.Sample{
					Tags: examon.Tags{Org: "unibo", Cluster: "syn", Node: host,
						Plugin: "dstat_pub", Core: -1, Metric: m},
					T: now, V: float64(tick % 7),
				})
			}
			batch = append(batch, examon.Sample{
				Tags: examon.Tags{Org: "unibo", Cluster: "syn", Node: host,
					Plugin: "dstat_pub", Core: -1, Metric: "temperature.cpu_temp"},
				T: now, V: 40,
			})
			st.InsertBatch(batch)
		}
	}
	setup := func(b *testing.B, hosts []string, opts []examon.StoreOption) (examon.Storage, func()) {
		b.Helper()
		st := examon.NewMemStore(opts...)
		for tick := 0; tick < ticks; tick++ {
			clusterTick(st, hosts, tick)
		}
		stop := make(chan struct{})
		var iwg sync.WaitGroup
		iwg.Add(1)
		go func() { // live ingest at a paced tick rate during the queries
			defer iwg.Done()
			tick := ticks
			for {
				select {
				case <-stop:
					return
				default:
				}
				clusterTick(st, hosts, tick)
				tick++
				time.Sleep(5 * time.Millisecond)
			}
		}()
		return st, func() { close(stop); iwg.Wait() }
	}
	modes := []struct {
		name string
		opts []examon.StoreOption
	}{
		{"indexed", nil},
		{"linear", []examon.StoreOption{examon.WithLinearScan(true), examon.WithRollup(-1)}},
	}
	for _, nodes := range []int{64, 512} {
		hosts := mkHosts(nodes)
		for _, mode := range modes {
			mode := mode
			b.Run(fmt.Sprintf("selective/%s/%dnodes", mode.name, nodes), func(b *testing.B) {
				st, stopIngest := setup(b, hosts, mode.opts)
				defer stopIngest()
				srv, err := examon.NewRESTServer(st)
				if err != nil {
					b.Fatal(err)
				}
				ts := httptest.NewServer(srv)
				defer ts.Close()
				client := ts.Client()
				client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						host := hosts[i%len(hosts)]
						var url string
						if i%2 == 0 {
							// Aligned aggregation: index + rollup tier.
							url = ts.URL + "/api/v2/query?node=" + host +
								"&plugin=pmu_pub&metric=instret&core=1&agg=avg&step=60&from=0&to=240"
						} else {
							// Raw range query through the streaming encoder.
							url = ts.URL + "/api/v1/query?node=" + host +
								"&metric=cycle&core=2&from=10&to=50&limit=100000"
						}
						resp, err := client.Get(url)
						if err != nil {
							b.Error(err)
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != 200 {
							b.Errorf("query -> %d", resp.StatusCode)
							return
						}
						i++
					}
				})
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
			b.Run(fmt.Sprintf("heatmap/%s/%dnodes", mode.name, nodes), func(b *testing.B) {
				st, stopIngest := setup(b, hosts, mode.opts)
				defer stopIngest()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Rollup-aligned whole-cluster heatmap: one multi-node
					// query over the dstat temperature gauge.
					hm, err := examon.BuildHeatmap(st, hosts, examon.HeatmapOptions{
						Plugin: "dstat_pub", Metric: "temperature.cpu_temp",
						From: 0, To: 60, BinWidth: 60,
					})
					if err != nil {
						b.Fatal(err)
					}
					if hm.Bins() != 1 {
						b.Fatalf("bins = %d", hm.Bins())
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "heatmaps/s")
			})
		}
	}
}
