package main

import (
	"strings"
	"testing"
)

func TestRunFastExperiments(t *testing.T) {
	tests := []struct {
		experiment string
		wantSubstr string
	}{
		{"table1", "quantum-espresso"},
		{"table2", "pmu_pub/chnl/data/core"},
		{"table4", "hwmon1/temp2_input"},
		{"table5", "1206"},
		{"table6", "5939"},
		{"hpl-efficiency", "Marconi100"},
		{"stream-efficiency", "Armida"},
		{"qe-lax", "36% FPU"},
		{"infiniband", "incompatibility"},
		{"decomposition", "leakage 984 mW"},
		{"fig4", "R1 984 mW"},
	}
	for _, tt := range tests {
		t.Run(tt.experiment, func(t *testing.T) {
			var sb strings.Builder
			if err := run(&sb, tt.experiment, 1, "hpl"); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), tt.wantSubstr) {
				t.Errorf("output missing %q:\n%s", tt.wantSubstr, sb.String())
			}
		})
	}
}

func TestRunFig3Workloads(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "fig3", 1, "stream.ddr"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stream.ddr") {
		t.Errorf("output = %s", sb.String())
	}
	if err := run(&sb, "fig3", 1, "not-a-workload"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The campaign experiment must print the demo campaign report.
func TestRunCampaignExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "campaign", 1, "hpl"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "campaign \"mcsched-demo\"") {
		t.Errorf("missing campaign report:\n%s", sb.String())
	}
}

// The chaos experiment must render the availability report (fault stats,
// availability/goodput line).
func TestRunChaosExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "chaos", 1, "hpl"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"campaign \"chaos-standard\"", "faults:", "availability"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("chaos report missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "table99", 1, "hpl"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
