package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files from the current output instead of
// comparing against them:
//
//	go test ./cmd/mcsched -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestGoldenSpecs pins `mcsched -campaign <spec> -events` byte for byte
// for the checked-in specs CI runs.
func TestGoldenSpecs(t *testing.T) {
	cases := []struct {
		name, spec string
		policy     string // non-empty: passed as an explicit -policy
		noFaults   bool
	}{
		{name: "smoke", spec: "../../internal/campaign/testdata/smoke.json"},
		{name: "chaos", spec: "../../internal/campaign/testdata/chaos.json"},
		{name: "chaos.nofaults", spec: "../../internal/campaign/testdata/chaos.json", noFaults: true},
		{name: "chaosstudy.powercap", spec: "../../examples/chaosstudy.json", policy: "powercap"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c.name+".events.txt", runSpec(t, c.spec, c.policy, c.noFaults))
		})
	}
}

// TestGoldenScale10k pins the 10k-node spec's report, and its 1 MB event
// log by sha256 and line count.
func TestGoldenScale10k(t *testing.T) {
	out := runSpec(t, "../../internal/campaign/testdata/scale10k.json", "", false)
	const marker = "\nevent log:\n"
	i := bytes.Index(out, []byte(marker))
	if i < 0 {
		t.Fatal("no event log in the output")
	}
	report, log := out[:i+len(marker)], out[i+len(marker):]
	got := fmt.Appendf(report, "sha256 %x, %d lines\n", sha256.Sum256(log), bytes.Count(log, []byte("\n")))
	checkGolden(t, "scale10k.events-digest.txt", got)
}

// TestGoldenMitigatedBudget pins the demo campaign with the airflow
// mitigation and a 43 W budget (`mcsched -mitigated -budget-w 43`).
func TestGoldenMitigatedBudget(t *testing.T) {
	for _, policy := range []string{"easy", "powercap"} {
		t.Run(policy, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, 8, true, policy, 43); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "mitigated.budget43."+policy+".txt", out.Bytes())
		})
	}
}

// runSpec runs a spec file with -events, as the command line would.
func runSpec(t *testing.T, spec, policy string, noFaults bool) []byte {
	t.Helper()
	set := map[string]bool{}
	if policy != "" {
		set["policy"] = true
	}
	var out bytes.Buffer
	if err := runSpecFile(&out, spec, set, 8, false, policy, 0, true, noFaults); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("output differs from %s:\n%s\n"+
		"Goldens are generated on linux/amd64; on another GOARCH Go may fuse x*y+z into an FMA "+
		"and differ in the last bit. For an intended change, rerun with -update and explain the diff.",
		path, firstDiff(want, got))
}

// firstDiff renders the first line where got departs from want, after up
// to two lines of shared context.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	lineAt := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	var b strings.Builder
	for j := max(0, i-2); j < i; j++ {
		fmt.Fprintf(&b, "  %5d  %s\n", j+1, w[j])
	}
	fmt.Fprintf(&b, "- %5d  %s\n", i+1, lineAt(w))
	fmt.Fprintf(&b, "+ %5d  %s\n", i+1, lineAt(g))
	fmt.Fprintf(&b, "(want %d lines, got %d)", len(w), len(g))
	return b.String()
}
