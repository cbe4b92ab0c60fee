package main

import (
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
