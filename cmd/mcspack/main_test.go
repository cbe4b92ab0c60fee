package main

import (
	"strings"
	"testing"
)

func TestStackSubcommand(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "u74mc", "gcc@10.3.0", []string{"stack"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"linux-sifive-u74mc", "openblas", "0.3.18", "build time"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestInstallSubcommand(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "u74mc", "gcc@10.3.0", []string{"install", "hpl@2.3"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "installed hpl@2.3") {
		t.Errorf("output = %s", sb.String())
	}
	if err := run(&sb, "u74mc", "gcc@10.3.0", []string{"install"}); err == nil {
		t.Error("install without specs accepted")
	}
}

func TestSpecSubcommand(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "u74mc", "gcc@10.3.0", []string{"spec", "netlib-scalapack"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "netlib-lapack") || !strings.Contains(out, "openmpi") {
		t.Errorf("DAG missing dependencies:\n%s", out)
	}
}

func TestModulesAndLoad(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "u74mc", "gcc@10.3.0", []string{"load", "hpl"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "prepend-path PATH") {
		t.Errorf("output = %s", sb.String())
	}
}

// modules lists the user stack it installs, like load, instead of an
// empty installer's nothing.
func TestModulesListsUserStack(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "u74mc", "gcc@10.3.0", []string{"modules"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 19 {
		t.Errorf("modules listed %d lines, want the 19 stack modules:\n%s", len(lines), sb.String())
	}
	if !strings.Contains(sb.String(), "hpl/") {
		t.Errorf("modules output lacks an hpl/ module:\n%s", sb.String())
	}
}

func TestBadArguments(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "u74mc", "gcc@10.3.0", nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run(&sb, "u74mc", "notaversion", []string{"stack"}); err == nil {
		t.Error("bad compiler accepted")
	}
	if err := run(&sb, "i486", "gcc@10.3.0", []string{"stack"}); err == nil {
		t.Error("unknown target accepted")
	}
	if err := run(&sb, "u74mc", "gcc@10.3.0", []string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run(&sb, "u74mc", "gcc@4.8.0", []string{"stack"}); err == nil {
		t.Error("too-old compiler accepted for u74mc")
	}
}
