package main

import (
	"math"
	"strings"
	"testing"
)

func TestMonitoringRun(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 2, "hpl", 30, "", 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"broker messages", "instructions/s per node", "mc01", "cpu_temp per node"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMonitoringUnknownWorkload(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 1, "doom", 10, "", 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestMonitoringIdle(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 1, "idle", 20, "", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `under "idle"`) {
		t.Errorf("output = %s", sb.String())
	}
}

// An out-of-range or non-finite -duration or -budget-w must fail before
// the machine boots, with nothing printed: an infinite duration never
// finishes, and a negative, NaN or infinite budget leaves no usable power
// plane.
func TestMonitoringRejectsBadFloats(t *testing.T) {
	for _, tc := range []struct {
		name             string
		duration, budget float64
	}{
		{"zero duration", 0, 0},
		{"infinite duration", math.Inf(1), 0},
		{"negative budget", 10, -3},
		{"NaN budget", 10, math.NaN()},
		{"infinite budget", 10, math.Inf(1)},
	} {
		var sb strings.Builder
		if err := run(&sb, 1, "idle", tc.duration, "", tc.budget); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if sb.Len() != 0 {
			t.Errorf("%s printed before failing:\n%s", tc.name, sb.String())
		}
	}
}

// -nodes 0 boots the default machine; the summary must report the nodes
// actually monitored, not the flag value.
func TestMonitoringReportsBootedNodes(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 0, "idle", 10, "", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "monitored 8 nodes ") {
		t.Errorf("summary = %q", strings.SplitN(sb.String(), "\n", 2)[0])
	}
}
