// Package spack reimplements the slice of the Spack package manager
// (Gamblin et al.) that the paper uses to deploy the Monte Cimone software
// stack: a package repository with dependency metadata, a concretiser that
// resolves an abstract spec into a concrete dependency DAG for a target
// microarchitecture, an installer that builds the DAG in topological order,
// and environment modules exposing the installed stack to users.
//
// The built-in repository carries the user-facing packages of Table I
// (gcc 10.3.0, openmpi 4.1.1, openblas 0.3.18, fftw 3.3.10, netlib-lapack
// 3.9.1, netlib-scalapack 2.1.0, hpl 2.3, stream 5.10, quantum-espresso
// 6.8) plus their transitive dependencies.
package spack

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"montecimone/internal/archspec"
)

// Package is a repository entry.
type Package struct {
	// Name is the Spack package name.
	Name string
	// Versions lists known versions, preferred (newest) first.
	Versions []string
	// Deps lists dependency package names.
	Deps []string
	// BuildSeconds is the simulated build time on the reference machine.
	BuildSeconds float64
}

// Repo is a package repository.
type Repo struct {
	pkgs map[string]*Package
}

// NewRepo returns an empty repository.
func NewRepo() *Repo {
	return &Repo{pkgs: make(map[string]*Package)}
}

// Add registers a package.
func (r *Repo) Add(p *Package) error {
	if p == nil || p.Name == "" {
		return fmt.Errorf("spack: package missing name")
	}
	if len(p.Versions) == 0 {
		return fmt.Errorf("spack: package %s has no versions", p.Name)
	}
	if _, dup := r.pkgs[p.Name]; dup {
		return fmt.Errorf("spack: duplicate package %s", p.Name)
	}
	r.pkgs[p.Name] = p
	return nil
}

// Get looks up a package by name.
func (r *Repo) Get(name string) (*Package, error) {
	p, ok := r.pkgs[name]
	if !ok {
		return nil, fmt.Errorf("spack: unknown package %q", name)
	}
	return p, nil
}

// BuiltinRepo returns the repository holding the Table I stack and its
// transitive dependencies.
func BuiltinRepo() *Repo {
	r := NewRepo()
	packages := []*Package{
		{Name: "gcc", Versions: []string{"10.3.0"}, Deps: []string{"gmp", "mpfr", "mpc", "zlib"}, BuildSeconds: 14400},
		{Name: "gmp", Versions: []string{"6.2.1"}, BuildSeconds: 300},
		{Name: "mpfr", Versions: []string{"4.1.0"}, Deps: []string{"gmp"}, BuildSeconds: 240},
		{Name: "mpc", Versions: []string{"1.2.1"}, Deps: []string{"gmp", "mpfr"}, BuildSeconds: 120},
		{Name: "zlib", Versions: []string{"1.2.11"}, BuildSeconds: 30},
		{Name: "openmpi", Versions: []string{"4.1.1"}, Deps: []string{"hwloc", "libevent", "pmix", "zlib"}, BuildSeconds: 2400},
		{Name: "hwloc", Versions: []string{"2.6.0"}, BuildSeconds: 300},
		{Name: "libevent", Versions: []string{"2.1.12"}, BuildSeconds: 180},
		{Name: "pmix", Versions: []string{"3.2.1"}, Deps: []string{"libevent", "hwloc"}, BuildSeconds: 360},
		{Name: "openblas", Versions: []string{"0.3.18"}, BuildSeconds: 1800},
		{Name: "fftw", Versions: []string{"3.3.10"}, BuildSeconds: 1200},
		{Name: "cmake", Versions: []string{"3.21.4"}, Deps: []string{"openssl", "ncurses"}, BuildSeconds: 2400},
		{Name: "openssl", Versions: []string{"1.1.1l"}, Deps: []string{"zlib"}, BuildSeconds: 900},
		{Name: "ncurses", Versions: []string{"6.2"}, BuildSeconds: 300},
		{Name: "netlib-lapack", Versions: []string{"3.9.1"}, Deps: []string{"cmake"}, BuildSeconds: 1500},
		{Name: "netlib-scalapack", Versions: []string{"2.1.0"}, Deps: []string{"netlib-lapack", "openmpi", "cmake"}, BuildSeconds: 1800},
		{Name: "hpl", Versions: []string{"2.3"}, Deps: []string{"openblas", "openmpi"}, BuildSeconds: 240},
		{Name: "stream", Versions: []string{"5.10"}, BuildSeconds: 20},
		{Name: "quantum-espresso", Versions: []string{"6.8"}, Deps: []string{"openblas", "fftw", "netlib-scalapack", "openmpi"}, BuildSeconds: 5400},
	}
	for _, p := range packages {
		if err := r.Add(p); err != nil {
			panic(fmt.Sprintf("spack: builtin repo: %v", err)) // unreachable: static list
		}
	}
	return r
}

// UserStack lists the user-facing packages of Table I in table order.
var UserStack = []string{
	"gcc", "openmpi", "openblas", "fftw", "netlib-lapack",
	"netlib-scalapack", "hpl", "stream", "quantum-espresso",
}

// Spec is an abstract request: a package name with an optional version.
type Spec struct {
	// Name is the package name.
	Name string
	// Version pins a version; empty picks the preferred one.
	Version string
}

// ParseSpec parses "name" or "name@version".
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, fmt.Errorf("spack: empty spec")
	}
	name, version, hasAt := strings.Cut(s, "@")
	if name == "" {
		return Spec{}, fmt.Errorf("spack: spec %q missing package name", s)
	}
	if hasAt && version == "" {
		return Spec{}, fmt.Errorf("spack: spec %q has empty version", s)
	}
	return Spec{Name: name, Version: version}, nil
}

// String renders the spec.
func (s Spec) String() string {
	if s.Version == "" {
		return s.Name
	}
	return s.Name + "@" + s.Version
}

// Compiler identifies the toolchain a DAG is built with.
type Compiler struct {
	// Name and Version, e.g. "gcc" "10.3.0".
	Name    string
	Version string
}

// String renders the compiler like Spack ("gcc@10.3.0").
func (c Compiler) String() string { return c.Name + "@" + c.Version }

// ConcreteSpec is a fully resolved node of an install DAG.
type ConcreteSpec struct {
	// Name and Version of the resolved package.
	Name    string
	Version string
	// Target is the archspec microarchitecture label.
	Target string
	// Compiler is the building toolchain.
	Compiler Compiler
	// Hash is the deterministic 7-character DAG hash.
	Hash string
	// Deps are the resolved dependencies (sorted by name).
	Deps []*ConcreteSpec
}

// String renders "name@version%gcc@10.3.0 arch=linux-…" Spack style.
func (c *ConcreteSpec) String() string {
	return fmt.Sprintf("%s@%s%%%s target=%s /%s", c.Name, c.Version, c.Compiler, c.Target, c.Hash)
}

// Concretize resolves a spec against the repository for a target
// microarchitecture, producing a deduplicated dependency DAG (one version
// of each package per DAG, like Spack's unified concretisation).
func Concretize(repo *Repo, spec Spec, target *archspec.Microarch, compiler Compiler) (*ConcreteSpec, error) {
	if repo == nil || target == nil {
		return nil, fmt.Errorf("spack: concretize needs a repo and target")
	}
	// Validate the compiler can target the microarchitecture at all.
	if _, err := target.OptimizationFlags(compiler.Name, compiler.Version); err != nil {
		return nil, fmt.Errorf("spack: %w", err)
	}
	resolved := make(map[string]*ConcreteSpec)
	visiting := make(map[string]bool)
	root, err := concretizeNode(repo, spec, target, compiler, resolved, visiting)
	if err != nil {
		return nil, err
	}
	return root, nil
}

func concretizeNode(repo *Repo, spec Spec, target *archspec.Microarch, compiler Compiler,
	resolved map[string]*ConcreteSpec, visiting map[string]bool) (*ConcreteSpec, error) {
	if c, ok := resolved[spec.Name]; ok {
		if spec.Version != "" && spec.Version != c.Version {
			return nil, fmt.Errorf("spack: conflicting versions for %s: %s vs %s", spec.Name, spec.Version, c.Version)
		}
		return c, nil
	}
	if visiting[spec.Name] {
		return nil, fmt.Errorf("spack: dependency cycle through %s", spec.Name)
	}
	visiting[spec.Name] = true
	defer delete(visiting, spec.Name)

	pkg, err := repo.Get(spec.Name)
	if err != nil {
		return nil, err
	}
	version := spec.Version
	if version == "" {
		version = pkg.Versions[0]
	} else if !contains(pkg.Versions, version) {
		return nil, fmt.Errorf("spack: %s has no version %s (known: %s)", spec.Name, version, strings.Join(pkg.Versions, ", "))
	}
	node := &ConcreteSpec{Name: spec.Name, Version: version, Target: target.Name, Compiler: compiler}
	depNames := append([]string(nil), pkg.Deps...)
	sort.Strings(depNames)
	for _, dep := range depNames {
		child, err := concretizeNode(repo, Spec{Name: dep}, target, compiler, resolved, visiting)
		if err != nil {
			return nil, fmt.Errorf("spack: %s: %w", spec.Name, err)
		}
		node.Deps = append(node.Deps, child)
	}
	node.Hash = dagHash(node)
	resolved[spec.Name] = node
	return node, nil
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// dagHash derives the 7-character base-32 hash from the node's identity
// and its dependencies' hashes.
func dagHash(c *ConcreteSpec) string {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%s@%s%%%s target=%s", c.Name, c.Version, c.Compiler, c.Target)
	for _, d := range c.Deps {
		_, _ = h.Write([]byte(d.Hash))
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyz234567"
	v := h.Sum64()
	out := make([]byte, 7)
	for i := range out {
		out[i] = alphabet[v&31]
		v >>= 5
	}
	return string(out)
}

// Flatten returns the DAG's nodes in dependency-first topological order.
func (c *ConcreteSpec) Flatten() []*ConcreteSpec {
	var order []*ConcreteSpec
	seen := make(map[string]bool)
	var walk func(n *ConcreteSpec)
	walk = func(n *ConcreteSpec) {
		if seen[n.Hash] {
			return
		}
		seen[n.Hash] = true
		for _, d := range n.Deps {
			walk(d)
		}
		order = append(order, n)
	}
	walk(c)
	return order
}
