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

// update rewrites the golden file from the current output instead of
// comparing against it:
//
//	go test ./cmd/mcfleet -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestGoldenSmoke pins `mcfleet -fleet smoke.json -events` byte for byte
// at pool widths 1, 4 and 0 (GOMAXPROCS): one golden serves all three,
// since stdout must not depend on the width.
func TestGoldenSmoke(t *testing.T) {
	path := filepath.Join("testdata", "golden", "smoke.events.txt")
	for _, workers := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, smokeSpec, workers, true, "", ""); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, path, out.Bytes())
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
