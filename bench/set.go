package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json, the benchmark's declaration at
// the repository root, that the harness and its tests read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func loadBenchSpec() (*benchSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func defaultSeconds() (float64, error) {
	s, err := loadBenchSpec()
	if err != nil {
		return 0, fmt.Errorf("no -seconds given: %w", err)
	}
	return float64(s.RunSeconds), nil
}

// setFile is one set of runs: untraced runs of every workload at one
// seed, one traced run each, and the runs at the held-out golden seed.
type setFile struct {
	Seed    int64               `json:"seed"`
	Seconds float64             `json:"seconds"`
	Runs    map[string][]result `json:"runs"`
	Traced  map[string]result   `json:"traced"`
	HeldOut map[string]result   `json:"held_out"`
}

// runSet runs a set: reps rounds of one untraced run per workload, round
// robin so slow drift of the host spreads over every workload alike, then
// one traced run per workload, then one run of each golden workload at
// the held-out seed. Every run is a child process of its own, so peak RSS
// and GC state belong to that run alone. It writes the set to out, prints
// a summary, and reports whether every run was correct.
func runSet(seed int64, reps int, seconds float64, out string, stdout, log io.Writer) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := setFile{Seed: seed, Seconds: seconds, Runs: map[string][]result{},
		Traced: map[string]result{}, HeldOut: map[string]result{}}
	ok := true
	child := func(w string, seed int64, seconds float64, trace int) (result, error) {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &buf, log
		runErr := cmd.Run()
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			if runErr != nil {
				return res, fmt.Errorf("%s seed %d: %w", w, seed, runErr)
			}
			return res, fmt.Errorf("%s seed %d: bad result line: %w", w, seed, err)
		}
		ok = ok && res.Correct
		return res, nil
	}
	for i := 0; i < reps; i++ {
		for _, w := range workloads {
			res, err := child(w.name, seed, seconds, 0)
			if err != nil {
				return false, err
			}
			set.Runs[w.name] = append(set.Runs[w.name], res)
		}
	}
	for _, w := range workloads {
		res, err := child(w.name, seed, seconds, 1)
		if err != nil {
			return false, err
		}
		set.Traced[w.name] = res
	}
	for _, w := range workloads {
		if !w.golden {
			continue
		}
		// The shortest run that still checks the held-out seed's golden.
		res, err := child(w.name, goldenSeeds[1], 1, 0)
		if err != nil {
			return false, err
		}
		set.HeldOut[w.name] = res
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	printSet(&set, stdout)
	return ok, nil
}

// printSet prints every metric of a set: the end-to-end metrics as median
// and quartiles over the untraced runs, the per-layer metrics of the
// traced run.
func printSet(set *setFile, w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tspread\truns\t\n")
	for _, wl := range workloads {
		runs := set.Runs[wl.name]
		for _, m := range endToEnd {
			xs := metricValues(runs, m.name)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.1f%%\t%d\t\n",
				wl.name, m.name, m.unit, median(xs), q1, q3, 100*spread(xs), len(xs))
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "metric\tunit\t")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t", wl.name)
	}
	fmt.Fprintln(tw)
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t", m.name, m.unit)
		for _, wl := range workloads {
			fmt.Fprintf(tw, "%.4g\t", set.Traced[wl.name].Metrics[m.name].Value)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, wl := range workloads {
		if res, ok := set.HeldOut[wl.name]; ok {
			fmt.Fprintf(w, "%s seed %d golden check: correct=%v\n", wl.name, goldenSeeds[1], res.Correct)
		}
	}
}

func metricValues(runs []result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.Metrics[name].Value)
	}
	return xs
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets compares set b against set a with the bounds of
// BENCHMARK.json: one row per workload and end-to-end metric, and one row
// per workload for the exact counters of the traced runs. It reports
// whether any row regressed or any exact counter differs.
func compareSets(pathA, pathB string, w io.Writer) (bool, error) {
	spec, err := loadBenchSpec()
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	bad := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tIQR a\tmedian b\tIQR b\tworse by\tbound\tverdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := metricValues(a.Runs[wl.name], m.Name), metricValues(b.Runs[wl.name], m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t%.2f\tmissing\n", wl.name, m.Name, m.Bound)
				continue
			}
			v, worse := verdict(xa, xb, m.Better == "higher", m.Bound)
			if v == "regressed" {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.1f%%\t%.4g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, m.Name, median(xa), 100*spread(xa), median(xb), 100*spread(xb),
				100*worse, 100*m.Bound, v)
		}
		var diffs []string
		ta, tb := a.Traced[wl.name].Metrics, b.Traced[wl.name].Metrics
		for _, m := range perLayer {
			if m.exact && ta[m.name] != tb[m.name] {
				diffs = append(diffs, fmt.Sprintf("%s %v != %v", m.name, ta[m.name].Value, tb[m.name].Value))
			}
		}
		exact := "ok"
		if len(diffs) > 0 {
			exact, bad = "exact-mismatch", true
		}
		fmt.Fprintf(tw, "%s\texact counters\t\t\t\t\t\t\t%s\n", wl.name, exact)
		for _, d := range diffs {
			fmt.Fprintf(tw, "\t  %s\n", d)
		}
	}
	return bad, tw.Flush()
}

// verdict judges runs b against runs a for one metric: "unresolved" when
// either side's spread exceeds the bound (unless every run of b beats
// every run of a), "regressed" when b's median is worse than a's by more
// than the bound, "ok" otherwise. worse is how much worse b's median is
// than a's, as a share of a's.
func verdict(a, b []float64, higherBetter bool, bound float64) (name string, worse float64) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if higherBetter {
		worse = -worse
	}
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case (spread(a) > bound || spread(b) > bound) && !allBetter:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "ok", worse
}
