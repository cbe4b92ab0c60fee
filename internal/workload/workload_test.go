package workload

import (
	"math"
	"strings"
	"testing"

	"montecimone/internal/power"
)

// The registry must hold exactly the paper's catalogue, sorted.
func TestRegistryNames(t *testing.T) {
	want := []string{"hpl", "idle", "mpi.pingpong", "qe", "stream.ddr", "stream.l2"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

// Lookup must resolve every registered model and reject unknown names with
// an error that lists the registry (the CLI-typo experience).
func TestLookup(t *testing.T) {
	for _, name := range Names() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if m.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, m.Name)
		}
	}
	_, err := Lookup("doom")
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("lookup error %q does not list %q", err, name)
		}
	}
}

// The steady profiles are the calibrated Table VI activities — the
// registry must hand out exactly the power package's presets so the
// physics (and the regenerated paper artifacts) cannot drift.
func TestSteadyMatchesTableVI(t *testing.T) {
	cases := map[string]power.Activity{
		"hpl":        power.ActivityHPL,
		"stream.ddr": power.ActivityStreamDDR,
		"stream.l2":  power.ActivityStreamL2,
		"qe":         power.ActivityQE,
		"idle":       power.ActivityIdle,
	}
	for name, want := range cases {
		if got := MustLookup(name).Steady; got != want {
			t.Errorf("%s steady = %+v, want %+v", name, got, want)
		}
	}
}

// Phased models must reproduce their steady profile in the time-weighted
// mean (within 2 %), so phase interleaving dissipates the same mean power
// as the steady profile the powercap admission gate predicts from.
func TestPhaseMeanReproducesSteady(t *testing.T) {
	pm := power.Calibration()
	for _, name := range Names() {
		m := MustLookup(name)
		if len(m.Phases) <= 1 {
			continue
		}
		mean := m.MeanPhaseActivity()
		steadyW := pm.TotalMilliwatts(power.PhaseRun, m.Steady)
		meanW := pm.TotalMilliwatts(power.PhaseRun, mean)
		if rel := math.Abs(meanW-steadyW) / steadyW; rel > 0.02 {
			t.Errorf("%s: phase-mean power %f mW vs steady %f mW (%.1f%% off)",
				name, meanW, steadyW, 100*rel)
		}
		if m.CycleSeconds() <= 0 {
			t.Errorf("%s: non-positive cycle", name)
		}
	}
}

// Runtime estimates are wired to the kernel simulators: HPL must show
// strong scaling, QE must match the paper's single-node 37.4 s, STREAM's
// DDR set must take longer than the L2 set, and the MPI sweep must need
// two nodes.
func TestRuntimeEstimates(t *testing.T) {
	hpl1, err := MustLookup("hpl").Runtime(1)
	if err != nil {
		t.Fatal(err)
	}
	hpl8, err := MustLookup("hpl").Runtime(8)
	if err != nil {
		t.Fatal(err)
	}
	if hpl8 >= hpl1 {
		t.Errorf("hpl runtime does not scale: 1 node %.0f s, 8 nodes %.0f s", hpl1, hpl8)
	}
	qe1, err := MustLookup("qe").Runtime(1)
	if err != nil {
		t.Fatal(err)
	}
	if qe1 < 30 || qe1 > 45 {
		t.Errorf("qe runtime %.1f s, want ~37.4 s", qe1)
	}
	ddr, err := MustLookup("stream.ddr").Runtime(1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := MustLookup("stream.l2").Runtime(1)
	if err != nil {
		t.Fatal(err)
	}
	if ddr <= l2 {
		t.Errorf("stream.ddr runtime %.2f s not above stream.l2 %.2f s", ddr, l2)
	}
	if _, err := MustLookup("mpi.pingpong").Runtime(1); err == nil {
		t.Error("mpi.pingpong accepted a single node")
	}
	pp, err := MustLookup("mpi.pingpong").Runtime(2)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep runs the MPI stack itself; pin its estimate bit for bit.
	if pp != 3.8818689361701657 {
		t.Errorf("mpi.pingpong runtime %v, want 3.8818689361701657", pp)
	}
	if MustLookup("idle").Runtime != nil {
		t.Error("idle has a runtime estimate")
	}
}

// Register must reject duplicates and malformed models.
func TestRegisterValidation(t *testing.T) {
	if err := Register(&Model{Name: "hpl"}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register(&Model{}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(&Model{Name: "bad-phase", Phases: []Phase{{Name: "p", Seconds: 0}}}); err == nil {
		t.Error("zero-duration phase accepted")
	}
}
