package spack

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"montecimone/internal/archspec"
)

var gcc103 = Compiler{Name: "gcc", Version: "10.3.0"}

func newInstaller(t *testing.T) *Installer {
	t.Helper()
	in, err := NewInstaller(BuiltinRepo(), "u74mc", gcc103)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestParseSpec(t *testing.T) {
	tests := []struct {
		give    string
		want    Spec
		wantErr bool
	}{
		{give: "hpl", want: Spec{Name: "hpl"}},
		{give: "hpl@2.3", want: Spec{Name: "hpl", Version: "2.3"}},
		{give: " openblas@0.3.18 ", want: Spec{Name: "openblas", Version: "0.3.18"}},
		{give: "", wantErr: true},
		{give: "@2.3", wantErr: true},
		{give: "hpl@", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseSpec(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted", tt.give)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tt.give, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tt.give, got, tt.want)
		}
	}
}

func TestRepoValidation(t *testing.T) {
	r := NewRepo()
	if err := r.Add(nil); err == nil {
		t.Error("nil package accepted")
	}
	if err := r.Add(&Package{Name: "x"}); err == nil {
		t.Error("versionless package accepted")
	}
	if err := r.Add(&Package{Name: "x", Versions: []string{"1"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(&Package{Name: "x", Versions: []string{"2"}}); err == nil {
		t.Error("duplicate package accepted")
	}
	if _, err := r.Get("nope"); err == nil {
		t.Error("unknown package accepted")
	}
}

func TestConcretizeHPL(t *testing.T) {
	target, err := archspec.Lookup("u74mc")
	if err != nil {
		t.Fatal(err)
	}
	root, err := Concretize(BuiltinRepo(), Spec{Name: "hpl"}, target, gcc103)
	if err != nil {
		t.Fatal(err)
	}
	if root.Version != "2.3" {
		t.Errorf("hpl version = %s, want 2.3", root.Version)
	}
	if root.Target != "u74mc" {
		t.Errorf("target = %s", root.Target)
	}
	flat := root.Flatten()
	names := make(map[string]bool, len(flat))
	for _, n := range flat {
		names[n.Name] = true
	}
	for _, dep := range []string{"openblas", "openmpi", "hwloc", "libevent", "pmix", "zlib"} {
		if !names[dep] {
			t.Errorf("transitive dependency %s missing from DAG", dep)
		}
	}
	// Root must come last in topological order.
	if flat[len(flat)-1].Name != "hpl" {
		t.Errorf("topological order ends with %s", flat[len(flat)-1].Name)
	}
	// Dependencies precede dependents.
	pos := make(map[string]int, len(flat))
	for i, n := range flat {
		pos[n.Name] = i
	}
	var check func(n *ConcreteSpec)
	check = func(n *ConcreteSpec) {
		for _, d := range n.Deps {
			if pos[d.Name] > pos[n.Name] {
				t.Errorf("dependency %s ordered after %s", d.Name, n.Name)
			}
			check(d)
		}
	}
	check(root)
}

func TestConcretizeUnknownVersion(t *testing.T) {
	target, _ := archspec.Lookup("u74mc")
	if _, err := Concretize(BuiltinRepo(), Spec{Name: "hpl", Version: "9.9"}, target, gcc103); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestConcretizeCycleDetected(t *testing.T) {
	r := NewRepo()
	_ = r.Add(&Package{Name: "a", Versions: []string{"1"}, Deps: []string{"b"}})
	_ = r.Add(&Package{Name: "b", Versions: []string{"1"}, Deps: []string{"a"}})
	target, _ := archspec.Lookup("u74mc")
	if _, err := Concretize(r, Spec{Name: "a"}, target, gcc103); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestConcretizeTooOldCompiler(t *testing.T) {
	target, _ := archspec.Lookup("u74mc")
	if _, err := Concretize(BuiltinRepo(), Spec{Name: "hpl"}, target, Compiler{Name: "gcc", Version: "4.8"}); err == nil {
		t.Error("too-old compiler accepted for riscv target")
	}
}

func TestHashDeterministicAndDepSensitive(t *testing.T) {
	target, _ := archspec.Lookup("u74mc")
	a, err := Concretize(BuiltinRepo(), Spec{Name: "hpl"}, target, gcc103)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Concretize(BuiltinRepo(), Spec{Name: "hpl"}, target, gcc103)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Error("hash not deterministic")
	}
	if len(a.Hash) != 7 {
		t.Errorf("hash %q length != 7", a.Hash)
	}
	// Different target changes the hash.
	p9, _ := archspec.Lookup("power9le")
	c, err := Concretize(BuiltinRepo(), Spec{Name: "hpl"}, p9, gcc103)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash == a.Hash {
		t.Error("hash ignores target")
	}
}

func TestInstallUserStackTableI(t *testing.T) {
	// Table I: the user-facing stack with exact versions.
	in := newInstaller(t)
	rows, err := in.InstallUserStack()
	if err != nil {
		t.Fatal(err)
	}
	want := []StackRow{
		{Package: "gcc", Version: "10.3.0"},
		{Package: "openmpi", Version: "4.1.1"},
		{Package: "openblas", Version: "0.3.18"},
		{Package: "fftw", Version: "3.3.10"},
		{Package: "netlib-lapack", Version: "3.9.1"},
		{Package: "netlib-scalapack", Version: "2.1.0"},
		{Package: "hpl", Version: "2.3"},
		{Package: "stream", Version: "5.10"},
		{Package: "quantum-espresso", Version: "6.8"},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
	if in.Triple() != "linux-sifive-u74mc" {
		t.Errorf("triple = %q", in.Triple())
	}
}

func TestInstallIsIdempotent(t *testing.T) {
	in := newInstaller(t)
	first, err := in.Install("hpl")
	if err != nil {
		t.Fatal(err)
	}
	count := len(in.Find())
	second, err := in.Install("hpl")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("reinstall created a new instance")
	}
	if len(in.Find()) != count {
		t.Error("reinstall grew the database")
	}
}

func TestInstallSharesDependencies(t *testing.T) {
	in := newInstaller(t)
	if _, err := in.Install("hpl"); err != nil {
		t.Fatal(err)
	}
	before := len(in.Find())
	if _, err := in.Install("netlib-scalapack"); err != nil {
		t.Fatal(err)
	}
	// scalapack shares openmpi/zlib/...; only new nodes are added.
	added := len(in.Find()) - before
	if added >= 6 {
		t.Errorf("scalapack added %d nodes; dependency sharing broken", added)
	}
	var openmpi *Installed
	for _, inst := range in.Find() {
		if inst.Spec.Name == "openmpi" {
			openmpi = inst
		}
	}
	if openmpi == nil {
		t.Fatal("openmpi not installed")
	}
	if !strings.Contains(openmpi.Prefix, "linux-sifive-u74mc") {
		t.Errorf("prefix = %q", openmpi.Prefix)
	}
}

func TestBuildSlowdownOnRiscV(t *testing.T) {
	riscv := newInstaller(t)
	x86, err := NewInstaller(BuiltinRepo(), "skylake", gcc103)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := riscv.Install("openblas"); err != nil {
		t.Fatal(err)
	}
	if _, err := x86.Install("openblas"); err != nil {
		t.Fatal(err)
	}
	if riscv.TotalBuildSeconds() <= x86.TotalBuildSeconds() {
		t.Error("native riscv build should be slower than x86 reference")
	}
}

func TestModules(t *testing.T) {
	in := newInstaller(t)
	if _, err := in.Install("hpl"); err != nil {
		t.Fatal(err)
	}
	avail := in.Modules().Avail()
	if len(avail) == 0 {
		t.Fatal("no modules after install")
	}
	env, err := in.Modules().Load("hpl")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env["PATH"], "/hpl-2.3-") {
		t.Errorf("PATH = %q", env["PATH"])
	}
	if _, err := in.Modules().Load("nonexistent"); err == nil {
		t.Error("unknown module accepted")
	}
	// Full name load.
	if _, err := in.Modules().Load(avail[0]); err != nil {
		t.Errorf("full-name load: %v", err)
	}
}

func TestCompilerFlagsExposed(t *testing.T) {
	in := newInstaller(t)
	flags, err := in.CompilerFlags()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flags, "rv64gc") {
		t.Errorf("flags = %q", flags)
	}
}

func TestInstallUnknownPackage(t *testing.T) {
	in := newInstaller(t)
	if _, err := in.Install("not-a-package"); err == nil {
		t.Error("unknown package accepted")
	}
	if _, err := in.Install(""); err == nil {
		t.Error("empty spec accepted")
	}
}

// Property: every concretised DAG has unique hashes per node name and the
// root hash depends deterministically only on the spec.
func TestConcretizeDeterminismProperty(t *testing.T) {
	target, _ := archspec.Lookup("u74mc")
	repo := BuiltinRepo()
	names := make([]string, 0, len(repo.pkgs))
	for name := range repo.pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	prop := func(idx uint8) bool {
		name := names[int(idx)%len(names)]
		a, errA := Concretize(repo, Spec{Name: name}, target, gcc103)
		b, errB := Concretize(repo, Spec{Name: name}, target, gcc103)
		if errA != nil || errB != nil {
			return false
		}
		if a.Hash != b.Hash {
			return false
		}
		seen := make(map[string]string)
		for _, n := range a.Flatten() {
			if prev, ok := seen[n.Hash]; ok && prev != n.Name {
				return false
			}
			seen[n.Hash] = n.Name
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
