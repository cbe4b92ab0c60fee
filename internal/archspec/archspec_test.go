package archspec

import (
	"strings"
	"testing"
)

func TestLookupKnown(t *testing.T) {
	for _, name := range []string{"riscv64", "u74mc", "ppc64le", "power9le", "power8le",
		"aarch64", "armv8.1a", "thunderx2", "x86_64", "skylake", "zen2"} {
		m, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if m.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, m.Name)
		}
	}
	if _, err := Lookup("i486"); err == nil {
		t.Error("unknown microarchitecture accepted")
	}
}

func TestU74MCTriple(t *testing.T) {
	// The paper quotes the linux-sifive-u74mc target triple as already
	// supported by archspec 0.1.3.
	m, err := Lookup("u74mc")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Triple("linux"); got != "linux-sifive-u74mc" {
		t.Errorf("triple = %q, want linux-sifive-u74mc", got)
	}
}

func TestU74MCBitmanipFlagsByCompilerVersion(t *testing.T) {
	// Section V-A (iii): GCC 10.3.0 cannot emit Zba/Zbb; minimal support
	// landed in GCC 12.
	m, err := Lookup("u74mc")
	if err != nil {
		t.Fatal(err)
	}
	old, err := m.OptimizationFlags("gcc", "10.3.0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(old, "zba") || strings.Contains(old, "zbb") {
		t.Errorf("gcc 10.3 flags %q must not contain bitmanip", old)
	}
	if !strings.Contains(old, "sifive-7-series") {
		t.Errorf("gcc 10.3 flags %q missing pipeline tuning", old)
	}
	modern, err := m.OptimizationFlags("gcc", "12.1.0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(modern, "zba_zbb") {
		t.Errorf("gcc 12 flags %q missing bitmanip", modern)
	}
}

func TestOptimizationFlagErrors(t *testing.T) {
	m, _ := Lookup("u74mc")
	if _, err := m.OptimizationFlags("icc", "2021"); err == nil {
		t.Error("unknown compiler accepted")
	}
	if _, err := m.OptimizationFlags("gcc", "nonsense"); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := m.OptimizationFlags("gcc", "4.8.5"); err == nil {
		t.Error("too-old compiler accepted for u74mc")
	}
}

func TestComparisonMachineFlags(t *testing.T) {
	p9, _ := Lookup("power9le")
	flags, err := p9.OptimizationFlags("gcc", "10.3.0")
	if err != nil || !strings.Contains(flags, "power9") {
		t.Errorf("power9 flags = %q, %v", flags, err)
	}
	tx2, _ := Lookup("thunderx2")
	flags, err = tx2.OptimizationFlags("gcc", "10.3.0")
	if err != nil || !strings.Contains(flags, "thunderx2") {
		t.Errorf("thunderx2 flags = %q, %v", flags, err)
	}
}
