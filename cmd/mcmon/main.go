// Command mcmon runs the ExaMon monitoring stack against the simulated
// cluster: it boots the machine with pmu_pub and stats_pub sampling, runs a
// workload for a stretch of virtual time, then either prints a monitoring
// summary (default) or serves the collected time-series database (the
// in-memory ExaMon store) through the RESTful HTTP API.
//
// Usage:
//
//	mcmon [-nodes N] [-workload hpl] [-duration 120] [-budget-w W]
//	      [-serve :8080]
//
// -budget-w enables the cluster power plane for the monitored run: per-node
// power_pub telemetry feeds the budget governor, whose state is printed
// after the run and served at /api/v2/powerplane alongside the query API.
//
// When serving, the listener also exposes the standard net/http/pprof
// endpoints under /debug/pprof/, so the long-lived monitor can be profiled
// in place (e.g. `go tool pprof host:port/debug/pprof/profile`).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof" // live profiling endpoints on the -serve listener
	"os"
	"strings"

	"montecimone/internal/campaign"
	"montecimone/internal/core"
	"montecimone/internal/examon"
	"montecimone/internal/report"
	"montecimone/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 8, "compute nodes")
	workloadName := flag.String("workload", "hpl",
		"workload model to monitor ("+strings.Join(workload.Names(), ", ")+")")
	duration := flag.Float64("duration", 120, "virtual seconds to monitor")
	budgetW := flag.Float64("budget-w", 0, "cluster power budget in watts (0 disables the power plane)")
	serve := flag.String("serve", "", "serve the REST API on this address after the run (e.g. :8080)")
	flag.Parse()
	if err := run(os.Stdout, *nodes, *workloadName, *duration, *serve, *budgetW); err != nil {
		fmt.Fprintln(os.Stderr, "mcmon:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, nodes int, workloadName string, duration float64, serve string, budgetW float64) error {
	if !(duration > 0) || math.IsInf(duration, 1) {
		return fmt.Errorf("-duration must be positive and finite, got %v", duration)
	}
	if !(budgetW >= 0) || math.IsInf(budgetW, 1) {
		return fmt.Errorf("-budget-w must be finite and >= 0, got %v", budgetW)
	}
	if nodes > campaign.MaxSpecSize {
		return fmt.Errorf("-nodes must be at most %d, got %d", campaign.MaxSpecSize, nodes)
	}
	s, err := core.NewSystem(core.Options{Nodes: nodes, HPMPatch: true, PowerBudgetW: budgetW})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Boot(); err != nil {
		return err
	}
	hosts := s.Cluster.Hostnames()
	model, err := workload.Lookup(workloadName)
	if err != nil {
		return err
	}
	if model.Name != "idle" {
		if err := s.Cluster.RunWorkloadOn(s.Cluster.AllNodes(), model.Name, model.Steady, model.MemBytes); err != nil {
			return err
		}
	}
	start := s.Engine.Now()
	if err := s.Advance(duration); err != nil {
		return err
	}
	end := s.Engine.Now()

	fmt.Fprintf(w, "monitored %d nodes for %.0f virtual seconds under %q\n", s.Cluster.Size(), duration, model.Name)
	fmt.Fprintf(w, "broker messages: %d; stored series: %d\n", s.Broker.Published(), s.DB.SeriesCount())

	// Per-node instruction-rate summary from the pmu_pub data.
	hm, err := examon.BuildHeatmap(s.DB, hosts, examon.HeatmapOptions{
		Plugin: "pmu_pub", Metric: "instret", Rate: true, SumCores: true,
		From: start, To: end, BinWidth: (end - start) / 48,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Heatmap("instructions/s per node", hm))

	temps, err := examon.BuildHeatmap(s.DB, hosts, examon.HeatmapOptions{
		Plugin: "dstat_pub", Metric: "temperature.cpu_temp",
		From: start, To: end, BinWidth: (end - start) / 48,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Heatmap("cpu_temp per node", temps))
	for i, nodeName := range temps.Nodes {
		fmt.Fprintf(w, "  %-6s mean %.1f degC\n", nodeName, temps.RowMean(i))
	}

	if s.Plane != nil {
		snap := s.Plane.Snapshot()
		fmt.Fprintf(w, "power plane: budget %.1f W, draw %.1f W, headroom %.1f W, %d node(s) throttled\n",
			snap.BudgetW, snap.DrawW, snap.HeadroomW, snap.ThrottledNodes)
	}

	if serve == "" {
		return nil
	}
	srv, err := examon.NewRESTServer(s.DB)
	if err != nil {
		return err
	}
	endpoints := "GET /api/v1/series, /api/v1/query, /api/v2/query"
	if s.Plane != nil {
		if err := srv.AttachPowerPlane(func() any { return s.Plane.Snapshot() }); err != nil {
			return err
		}
		endpoints += ", /api/v2/powerplane"
	}
	// Serve the REST API alongside the live pprof endpoints: the blank
	// net/http/pprof import registers its handlers on the default mux, and
	// the wrapper mux routes /debug/pprof/ there while everything else goes
	// to the ExaMon server — so a long-lived monitor can be profiled in
	// place with `go tool pprof host:port/debug/pprof/profile`.
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.Handle("/", srv)
	fmt.Fprintf(w, "serving ExaMon REST API on %s (%s; pprof on /debug/pprof/)\n", serve, endpoints)
	return http.ListenAndServe(serve, mux)
}
