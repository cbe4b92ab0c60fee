// Command mcrun builds the simulated Monte Cimone cluster and regenerates
// any table or figure of the paper's evaluation section.
//
// Usage:
//
//	mcrun -experiment table1|table2|table3|table4|table5|table6|
//	                  fig2|fig3|fig4|fig5|fig6|
//	                  hpl-efficiency|stream-efficiency|qe-lax|infiniband|
//	                  decomposition|campaign|chaos|all
//	      [-seed N] [-workload hpl|stream.ddr|stream.l2|qe|idle]
//	      [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// The campaign experiment runs the demo batch campaign end to end and
// prints its report. The chaos experiment runs the same job mix under the
// standard fault storm — crash/reboot cycles, thermal runaway to the
// 107 degC trip, brownout budget steps, network degradation, a straggler —
// with requeue and checkpoint/restart on, and prints the availability
// report. Neither is part of -experiment all, which regenerates the paper
// artifacts byte-for-byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"montecimone/internal/campaign"
	"montecimone/internal/core"
	"montecimone/internal/power"
	"montecimone/internal/profiling"
	"montecimone/internal/report"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id (see -help)")
	seed := flag.Int64("seed", 1, "deterministic noise seed")
	workload := flag.String("workload", "hpl", "workload for fig3 traces")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcrun:", err)
		os.Exit(1)
	}
	err = run(os.Stdout, *experiment, *seed, *workload)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcrun:", err)
		os.Exit(1)
	}
}

// run dispatches one experiment (or all of them) to the writer.
func run(w io.Writer, experiment string, seed int64, workload string) error {
	runners := map[string]func(io.Writer, int64) error{
		"table1":            runTableI,
		"table2":            runTableII,
		"table3":            runTableIII,
		"table4":            runTableIV,
		"table5":            runTableV,
		"table6":            runTableVI,
		"fig2":              runFig2,
		"fig4":              runFig4,
		"fig5":              runFig5,
		"fig6":              runFig6,
		"hpl-efficiency":    runHPLEff,
		"stream-efficiency": runStreamEff,
		"qe-lax":            runQELax,
		"infiniband":        runInfiniband,
		"decomposition":     runDecomposition,
		"energy":            runEnergy,
		"dtm":               runDTM,
		"anomaly":           runAnomaly,
		"accelerator":       runAccelerator,
		"campaign":          runCampaign,
		"chaos":             runChaos,
	}
	if experiment == "fig3" {
		return runFig3(w, seed, workload)
	}
	if experiment == "all" {
		order := []string{
			"table1", "table2", "table3", "table4", "table5", "table6",
			"fig2", "fig4", "fig5", "fig6",
			"hpl-efficiency", "stream-efficiency", "qe-lax", "infiniband",
			"decomposition", "energy", "dtm", "anomaly", "accelerator",
		}
		if err := runFig3(w, seed, workload); err != nil {
			return err
		}
		for _, name := range order {
			if err := runners[name](w, seed); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	fn, ok := runners[experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return fn(w, seed)
}

// runCampaign executes the demo batch campaign and prints its report.
// Deliberately NOT part of "all": the "all" output is the paper-artifact
// regeneration that CI diffs byte-for-byte.
func runCampaign(w io.Writer, seed int64) error {
	spec := campaign.DefaultSpec(8, "easy", true, 0)
	spec.Seed = seed
	res, err := campaign.Run(spec)
	if err != nil {
		return err
	}
	return res.WriteReport(w)
}

// runChaos executes the standard chaos campaign — the demo job mix with
// every fault class armed, requeueing and checkpointing on — and prints
// the availability report. Like campaign, deliberately NOT part of "all":
// the "all" output is the byte-diffed paper-artifact regeneration.
func runChaos(w io.Writer, seed int64) error {
	spec := campaign.ChaosSpec(8, "easy", 40)
	spec.Seed = seed
	res, err := campaign.Run(spec)
	if err != nil {
		return err
	}
	return res.WriteReport(w)
}

func runTableI(w io.Writer, _ int64) error {
	rows, err := core.TableI()
	if err != nil {
		return err
	}
	return report.TableI(rows).Write(w)
}

func runTableII(w io.Writer, _ int64) error {
	return report.TableII(core.TableII()).Write(w)
}

func runTableIII(w io.Writer, _ int64) error {
	rows, err := core.TableIII()
	if err != nil {
		return err
	}
	return report.TableIII(rows).Write(w)
}

func runTableIV(w io.Writer, _ int64) error {
	rows, err := core.TableIV()
	if err != nil {
		return err
	}
	return report.TableIV(rows).Write(w)
}

func runTableV(w io.Writer, seed int64) error {
	tbl, err := core.TableV(seed)
	if err != nil {
		return err
	}
	return report.TableV(tbl).Write(w)
}

func runTableVI(w io.Writer, _ int64) error {
	return report.TableVI(core.TableVI()).Write(w)
}

func runFig2(w io.Writer, seed int64) error {
	points, err := core.Fig2(seed)
	if err != nil {
		return err
	}
	return report.Fig2(points).Write(w)
}

func runFig3(w io.Writer, seed int64, workload string) error {
	traces, err := core.Fig3(workload, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 3: 8 s power traces during %s (1 ms windows)\n", traces.Workload)
	for _, name := range traces.Traces.Names() {
		tr := traces.Traces.Lookup(name)
		vals := make([]float64, tr.Len())
		for i := range vals {
			vals[i] = tr.At(i).Value
		}
		fmt.Fprintf(w, "  %-8s mean %7.1f mW  %s\n", name, tr.Mean(),
			report.Sparkline(report.Downsample(vals, 64)))
	}
	return nil
}

func runFig4(w io.Writer, seed int64) error {
	bt, err := core.Fig4(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 4: boot power trace (80 s, power button at t=%.0f s)\n", bt.PowerOnAt)
	fmt.Fprintf(w, "  core rail region means: R1 %.0f mW (leakage), R2 %.0f mW (+clock tree), R3 %.0f mW (OS idle)\n",
		bt.R1Mean, bt.R2Mean, bt.R3Mean)
	fmt.Fprintf(w, "  PLL activation at t=%.1f s\n", bt.PLLActivationAt)
	for _, name := range bt.Traces.Names() {
		tr := bt.Traces.Lookup(name)
		vals := make([]float64, tr.Len())
		for i := range vals {
			vals[i] = tr.At(i).Value
		}
		fmt.Fprintf(w, "  %-8s %s\n", name, report.Sparkline(report.Downsample(vals, 64)))
	}
	return nil
}

func runFig5(w io.Writer, seed int64) error {
	hm, err := core.Fig5(16, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 5: ExaMon heatmaps during %d s of 8-node HPL\n", int(hm.RunSeconds))
	fmt.Fprint(w, report.Heatmap("  Instructions/s", hm.InstructionsPerSec))
	fmt.Fprint(w, report.Heatmap("  Network traffic", hm.NetworkBytesPerSec))
	fmt.Fprint(w, report.Heatmap("  Memory usage", hm.MemoryUsedBytes))
	return nil
}

func runFig6(w io.Writer, seed int64) error {
	rep, err := core.Fig6(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig. 6: thermal runaway during HPL execution")
	fmt.Fprintf(w, "  thermal hazard: %s reached 107 degC after %.0f s and stopped executing\n",
		rep.TrippedNode, rep.TripAt)
	fmt.Fprintf(w, "  hottest stable node before mitigation: %.1f degC\n", rep.PeakBeforeMitigation)
	fmt.Fprintf(w, "  hottest node after lid removal + spacing: %.1f degC\n", rep.PeakAfterMitigation)
	for _, name := range rep.Temps.Names() {
		tr := rep.Temps.Lookup(name)
		vals := make([]float64, tr.Len())
		for i := range vals {
			vals[i] = tr.At(i).Value
		}
		fmt.Fprintf(w, "  %-6s max %5.1f degC  %s\n", name, tr.Max(),
			report.Sparkline(report.Downsample(vals, 64)))
	}
	return nil
}

func runHPLEff(w io.Writer, _ int64) error {
	rows, err := core.HPLEfficiencyComparison()
	if err != nil {
		return err
	}
	return report.Efficiency("Single-node HPL FPU utilisation (upstream stack)", "GFLOP/s", rows).Write(w)
}

func runStreamEff(w io.Writer, _ int64) error {
	rows, err := core.StreamEfficiencyComparison()
	if err != nil {
		return err
	}
	return report.Efficiency("STREAM fraction of peak DDR bandwidth (upstream stack)", "MB/s", rows).Write(w)
}

func runQELax(w io.Writer, seed int64) error {
	rep, err := core.QELax(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "quantumESPRESSO LAX (512^2, single node): %.2f +- %.2f GFLOP/s (%.0f%% FPU), %.2f +- %.2f s\n",
		rep.MeanGFlops, rep.StdGFlops, 100*rep.Efficiency, rep.MeanSeconds, rep.StdSeconds)
	return nil
}

func runInfiniband(w io.Writer, _ int64) error {
	rep, err := core.InfinibandStatus()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "InfiniBand FDR HCA bring-up (Mellanox ConnectX-4, PCIe Gen3 x8):")
	fmt.Fprintf(w, "  recognised by kernel: %v; OFED module loaded: %v\n", rep.Recognised, rep.ModuleLoaded)
	fmt.Fprintf(w, "  ib-ping board-to-board RTT: %.2f us\n", rep.PingRTTSeconds*1e6)
	fmt.Fprintf(w, "  RDMA verbs working: %v (%s)\n", rep.RDMAWorking, rep.RDMAError)
	return nil
}

func runEnergy(w io.Writer, _ int64) error {
	rep, err := core.EnergyToSolution()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Energy to solution (extension):")
	fmt.Fprintf(w, "  node power: %.3f W idle, %.3f W under HPL\n", rep.NodeIdleWatts, rep.NodeHPLWatts)
	fmt.Fprintf(w, "  single-node HPL: %.0f kJ, %.3f GFLOPS/W\n", rep.SingleNodeKJ, rep.SingleNodeGFlopsPerWatt)
	fmt.Fprintf(w, "  full machine:    %.0f kJ, %.3f GFLOPS/W\n", rep.FullMachineKJ, rep.FullMachineGFlopsPerWatt)
	return nil
}

func runDTM(w io.Writer, _ int64) error {
	rep, err := core.DTMStudy()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Dynamic thermal management on node 7, original enclosure (future work ii):")
	fmt.Fprintf(w, "  survived one hour of HPL: %v (without the governor it trips at 107 degC)\n", rep.Survived)
	fmt.Fprintf(w, "  steady junction: %.1f degC; mean DVFS scale %.2f; %.0f s throttled\n",
		rep.SteadyTempC, rep.MeanScale, rep.ThrottledSeconds)
	return nil
}

func runAnomaly(w io.Writer, seed int64) error {
	rep, err := core.ThermalAnomalyScan(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "ODA anomaly detection over the thermal incident:")
	fmt.Fprintf(w, "  mc07 runaway flagged at t=%.0f s; hardware trip at t=%.0f s (%.0f s lead)\n",
		rep.DetectedAt, rep.TripAt, rep.LeadSeconds)
	for _, a := range rep.Findings {
		fmt.Fprintf(w, "  %-6s %-8s t=%6.1f value=%6.1f score=%.1f\n",
			a.Tags.Node, a.Kind, a.Time, a.Value, a.Score)
	}
	return nil
}

func runAccelerator(w io.Writer, _ int64) error {
	rep, err := core.AcceleratorStudy()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "PCIe RISC-V accelerator projection (future work v):")
	fmt.Fprintf(w, "  %s on the x8 Gen3 slot: %.1f -> %.1f GFLOP/s HPL (%.1fx, %s-bound)\n",
		rep.Card, rep.HostGFlops, rep.AccelGFlops, rep.Speedup, rep.Bound)
	fmt.Fprintf(w, "  node power with busy card: %.1f W; efficiency %.2f -> %.2f GFLOPS/W\n",
		rep.NodeWattsWithCard, rep.HostGFlopsPerWatt, rep.AccelGFlopsPerWatt)
	return nil
}

func runDecomposition(w io.Writer, _ int64) error {
	d := core.Decomposition()
	fmt.Fprintln(w, "Power decomposition (Section V-B):")
	fmt.Fprintf(w, "  idle system: %.3f W; under HPL: %.3f W\n",
		d.IdleTotalMilliwatts/1000, d.HPLTotalMilliwatts/1000)
	fmt.Fprintf(w, "  core idle: leakage %.0f mW (%.0f%%), clock tree + dynamic %.0f mW (%.0f%%), OS %.0f mW (%.0f%%)\n",
		d.CoreLeakage, 100*d.CoreLeakageFrac, d.CoreClockTree, 100*d.CoreClockTreeFrac,
		d.CoreOS, 100*d.CoreOSFrac)
	fmt.Fprintf(w, "  DDR banks: leakage %.0f mW (%.0f%% of idle bank power)\n",
		d.DDRLeakage, 100*d.DDRLeakageFrac)
	// Keep the power import honest: report the rail count.
	fmt.Fprintf(w, "  monitored rails: %d\n", len(power.Rails))
	return nil
}
