// Fleetstudy demonstrates the federated multi-cluster runner: three
// heterogeneous sites — the paper's mitigated 8-node Monte Cimone under
// a 50 W budget, a small hot 4-node test enclosure and a cold 8-node
// sister site — serve two tenants, one submitting explicit campaigns and
// one a Poisson stream of identical training campaigns. The meta-
// scheduler routes every arrival by predicted power/thermal headroom
// minus queue depth; the study prints the routing decisions, runs the
// fleet at worker-pool widths 1 and the CPU count, verifies the reports
// are byte-identical (the fleet determinism contract), and shows the
// per-cluster and federated-telemetry breakdowns.
//
// Run with: go run ./examples/fleetstudy
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	"montecimone/internal/campaign"
	"montecimone/internal/fleet"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func spec() fleet.Spec {
	sweep := campaign.Spec{
		Name: "sweep", HorizonS: 1500,
		Arrival: &campaign.Arrival{Process: "poisson", RatePerHour: 120, Jobs: 5},
		Mix: []campaign.MixEntry{
			{Workload: "hpl", Weight: 1, NodesMin: 2, NodesMax: 4, DurationS: 250},
			{Workload: "stream.ddr", Weight: 1, NodesMin: 1, NodesMax: 2, DurationS: 100},
		},
	}
	wide := campaign.Spec{
		Name: "wide", HorizonS: 1500,
		Jobs: []campaign.JobEntry{
			{Name: "wide-1", Workload: "qe", Nodes: 6, SubmitS: 0, DurationS: 300},
			{Name: "wide-2", Workload: "hpl", Nodes: 8, SubmitS: 150, DurationS: 240},
		},
	}
	train := campaign.Spec{
		Name: "train", HorizonS: 1000,
		Arrival: &campaign.Arrival{Process: "poisson", RatePerHour: 90, Jobs: 3},
		Mix: []campaign.MixEntry{
			{Workload: "stream.l2", Weight: 1, NodesMin: 1, NodesMax: 2, DurationS: 180},
		},
	}
	return fleet.Spec{
		Name: "fleetstudy", Seed: 42,
		Clusters: []fleet.ClusterSpec{
			{ID: "bologna", Nodes: 8, PowerBudgetW: 50, Mitigated: true},
			{ID: "testbed", Nodes: 4, AmbientC: 34},
			{ID: "sister", Nodes: 8, AmbientC: 16},
		},
		Tenants: []fleet.TenantSpec{
			{Name: "cfd", Campaigns: []fleet.Submission{
				{ArriveS: 0, Spec: sweep},
				{ArriveS: 200, Spec: wide},
			}},
			{Name: "ml", Stream: &fleet.Stream{RatePerHour: 15, Count: 4, Template: train}},
		},
	}
}

func run(w io.Writer) error {
	s := spec()
	f, err := fleet.New(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fleet study: %d clusters, %d tenants, seed %d\n\n",
		len(s.Clusters), len(s.Tenants), s.Seed)
	fmt.Fprintln(w, "routing decisions (serial pre-pass, before any cluster runs):")
	for _, a := range f.Assignments() {
		fmt.Fprintf(w, "  t=%7.1f  %-14s -> %-8s score %6.1f (pred %4.1f W, %d jobs)\n",
			a.ArriveS, a.Campaign.Name, a.ClusterID, a.Score, a.DrawW, a.Demand.Jobs)
	}
	fmt.Fprintln(w)

	serial, err := fleet.Run(s, 1)
	if err != nil {
		return err
	}
	wide := runtime.GOMAXPROCS(0)
	parallel, err := fleet.Run(s, wide)
	if err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := serial.WriteReport(&a); err != nil {
		return err
	}
	if err := parallel.WriteReport(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("determinism violated: reports differ between 1 and %d workers", wide)
	}
	fmt.Fprintf(w, "determinism: report byte-identical at 1 and %d workers (max active %d)\n\n",
		parallel.Stats.Workers, parallel.Stats.MaxActive)
	_, err = io.Copy(w, &a)
	return err
}
