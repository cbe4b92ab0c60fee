package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCampaignOriginalEnclosure(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 8, false, "easy", 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// With the lid on, the full-machine HPL job dies on the node-7 trip.
	if !strings.Contains(out, "NODE_FAIL") {
		t.Errorf("expected NODE_FAIL in:\n%s", out)
	}
	if !strings.Contains(out, "mc07=down") {
		t.Errorf("expected mc07 down in sinfo:\n%s", out)
	}
	if !strings.Contains(out, "COMPLETED") {
		t.Error("no job completed")
	}
	if !strings.Contains(out, "scheduler policy: easy") {
		t.Error("missing policy line")
	}
}

func TestCampaignMitigated(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 8, true, "easy", 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "NODE_FAIL") {
		t.Errorf("mitigated campaign still failed:\n%s", out)
	}
	if !strings.Contains(out, "hpl-full") {
		t.Error("missing campaign jobs")
	}
}

func TestCampaignAlternatePolicies(t *testing.T) {
	for _, policy := range []string{"fifo", "sjf", "bestfit"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			var sb strings.Builder
			if err := run(&sb, 8, true, policy, 0); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			if !strings.Contains(out, "scheduler policy: "+policy) {
				t.Errorf("missing policy line for %s", policy)
			}
			// The mitigated campaign must fully complete under any policy
			// (mid-run squeue snapshots may show PENDING; the final
			// accounting must not).
			_, acct, found := strings.Cut(out, "final accounting")
			if !found {
				t.Fatalf("missing accounting section:\n%s", out)
			}
			if strings.Contains(acct, "NODE_FAIL") || strings.Contains(acct, "PENDING") || strings.Contains(acct, "RUNNING") {
				t.Errorf("campaign did not drain cleanly under %s:\n%s", policy, acct)
			}
		})
	}
}

// A spec that still asks for shards must load (the field is deprecated,
// not rejected) and print exactly the report and event log of the same
// spec without it.
func TestCampaignShardedMatchesSerial(t *testing.T) {
	const smoke = "../../internal/campaign/testdata/smoke.json"
	data, err := os.ReadFile(smoke)
	if err != nil {
		t.Fatal(err)
	}
	sharded := filepath.Join(t.TempDir(), "smoke-shards.json")
	if err := os.WriteFile(sharded, bytes.Replace(data, []byte("{"), []byte(`{"shards": 4,`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	render := func(path string) string {
		var sb strings.Builder
		if err := runSpecFile(&sb, path, nil, 8, false, "easy", 0, true, false); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if serial, got := render(smoke), render(sharded); got != serial {
		t.Errorf("output diverges with shards set:\n--- without\n%s\n--- shards 4\n%s", serial, got)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 8, false, "lottery", 0); err == nil {
		t.Error("unknown policy accepted")
	}
}

// A NaN or infinite -budget-w must be rejected, on the demo campaign and
// as a -campaign override, instead of running with no plane or a +Inf W
// one.
func TestNonFiniteBudgetRejected(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		var sb strings.Builder
		if err := run(&sb, 8, false, "easy", w); err == nil {
			t.Errorf("demo campaign accepted -budget-w %v", w)
		}
		err := runSpecFile(&sb, "../../internal/campaign/testdata/smoke.json",
			map[string]bool{"budget-w": true}, 8, false, "easy", w, false, false)
		if err == nil {
			t.Errorf("-campaign accepted -budget-w %v", w)
		}
	}
}

// -campaign must run a JSON spec end to end and print the report; explicit
// flags override the spec.
func TestCampaignSpecRun(t *testing.T) {
	var sb strings.Builder
	err := runSpecFile(&sb, "../../internal/campaign/testdata/smoke.json",
		map[string]bool{"policy": true}, 8, false, "bestfit", 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`campaign "smoke"`, "policy bestfit", "COMPLETED", "event log:", "start"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// A missing or malformed spec must fail loudly.
func TestCampaignSpecErrors(t *testing.T) {
	var sb strings.Builder
	if err := runSpecFile(&sb, "no-such-spec.json", nil, 8, false, "easy", 0, false, false); err == nil {
		t.Error("missing spec accepted")
	}
}

// -no-faults must strip the chaos spec's fault block: same spec, no fault
// lines, no availability block — the report renders in the pre-fault
// format.
func TestCampaignNoFaultsAblation(t *testing.T) {
	var sb strings.Builder
	err := runSpecFile(&sb, "../../internal/campaign/testdata/chaos.json",
		nil, 8, false, "easy", 0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `campaign "chaos-smoke"`) {
		t.Fatalf("missing report:\n%s", out)
	}
	for _, banned := range []string{"fault  ", "availability", "Retries", "end states:", "requeue"} {
		if strings.Contains(out, banned) {
			t.Errorf("-no-faults output still renders %q", banned)
		}
	}
}
