// Command mcfleet runs a federated multi-cluster fleet: a JSON fleet
// spec declares heterogeneous clusters (node count, power budget,
// ambient temperature) and tenant campaign streams, the
// two-level meta-scheduler routes each arriving campaign to the cluster
// with the best predicted power/thermal headroom and shallowest queue,
// and each cluster executes its routed queue on a worker-pool goroutine
// with its own engine, scheduler, power plane and telemetry stack.
//
// Usage:
//
//	mcfleet -fleet spec.json [-fleet-workers N] [-events]
//	        [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -fleet-workers sets the cluster worker-pool width (0 means one worker
// per available CPU; the pool never exceeds the cluster count). Routing
// happens in a deterministic serial pre-pass before any cluster runs, so
// the report and event logs on stdout are byte-identical at every width
// — CI diffs -fleet-workers 1 against 4 and 0. The resolved width and
// the realized parallel shape print to stderr, keeping stdout diffable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"montecimone/internal/fleet"
	"montecimone/internal/profiling"
)

func main() {
	specPath := flag.String("fleet", "", "JSON fleet spec to run (required)")
	workers := flag.Int("fleet-workers", 0, "cluster worker-pool width (0 = GOMAXPROCS)")
	events := flag.Bool("events", false, "print the per-cluster event logs after the report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if err := run(os.Stdout, *specPath, *workers, *events, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "mcfleet:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, specPath string, workers int, events bool, cpuprofile, memprofile string) (err error) {
	if specPath == "" {
		return fmt.Errorf("-fleet spec.json is required")
	}
	if workers < 0 {
		return fmt.Errorf("-fleet-workers must be >= 0, got %d", workers)
	}
	stopProf, err := profiling.Start(cpuprofile, memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()
	spec, err := fleet.Load(specPath)
	if err != nil {
		return err
	}
	if workers == 0 && spec.Workers > 0 {
		workers = spec.Workers
	}
	res, err := fleet.Run(spec, workers)
	if err != nil {
		return err
	}
	// Worker shape goes to stderr: stdout must stay byte-diffable across
	// pool widths (the fleet determinism contract CI enforces with cmp).
	fmt.Fprintf(os.Stderr, "mcfleet: workers: %d over %d clusters, max active %d\n",
		res.Stats.Workers, res.Stats.Clusters, res.Stats.MaxActive)
	if err := res.WriteReport(w); err != nil {
		return err
	}
	if events {
		fmt.Fprintln(w, "\nevent logs:")
		return res.WriteEventLogs(w)
	}
	return nil
}
