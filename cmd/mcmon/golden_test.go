package main

import (
	"bytes"
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
//	go test ./cmd/mcmon -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestGoldenRuns pins the two mcmon runs CI checks for determinism,
// `mcmon -nodes 8 -duration 60` and `mcmon -nodes 4 -duration 60
// -budget-w 20`, plus `mcmon -nodes 8 -duration 60` under
// `-workload mpi.pingpong` and `-workload idle` (the run that starts no
// workload), summary and heatmaps byte for byte.
func TestGoldenRuns(t *testing.T) {
	cases := []struct {
		name     string
		nodes    int
		workload string
		budgetW  float64
	}{
		{"nodes8.duration60", 8, "hpl", 0},
		{"nodes4.duration60.budget20", 4, "hpl", 20},
		{"nodes8.duration60.mpi.pingpong", 8, "mpi.pingpong", 0},
		{"nodes8.duration60.idle", 8, "idle", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, c.nodes, c.workload, 60, "", c.budgetW); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", c.name+".txt"), out.Bytes())
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
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
