package spack

import (
	"fmt"
	"sort"
	"strings"

	"montecimone/internal/archspec"
)

// Installed records one built package instance.
type Installed struct {
	// Spec is the concrete spec that was built.
	Spec *ConcreteSpec
	// Prefix is the install prefix under the Spack root.
	Prefix string
	// BuildSeconds is the simulated build duration of this node alone.
	BuildSeconds float64
}

// Installer builds concrete DAGs and maintains the installed database and
// environment modules, like `spack install` plus the module generator.
type Installer struct {
	repo     *Repo
	target   *archspec.Microarch
	compiler Compiler
	platform string

	// buildSlowdown scales package build times relative to the reference
	// x86 build machine (building natively on the U740 is slow; the paper
	// notes gcc itself takes many hours).
	buildSlowdown float64

	installed map[string]*Installed // by hash
	order     []string              // install order (hashes)
	modules   *Modules
}

// NewInstaller creates an installer for a target microarchitecture label.
func NewInstaller(repo *Repo, targetName string, compiler Compiler) (*Installer, error) {
	if repo == nil {
		return nil, fmt.Errorf("spack: nil repo")
	}
	target, err := archspec.Lookup(targetName)
	if err != nil {
		return nil, fmt.Errorf("spack: %w", err)
	}
	slowdown := 1.0
	if target.Family == "riscv64" {
		slowdown = 6.0 // native builds on the 4-core 1.2 GHz U740
	}
	return &Installer{
		repo:          repo,
		target:        target,
		compiler:      compiler,
		platform:      "linux",
		buildSlowdown: slowdown,
		installed:     make(map[string]*Installed),
		modules:       NewModules(),
	}, nil
}

// Triple returns the Spack target triple (e.g. "linux-sifive-u74mc").
func (in *Installer) Triple() string { return in.target.Triple(in.platform) }

// CompilerFlags returns the archspec optimisation flags the builds use.
func (in *Installer) CompilerFlags() (string, error) {
	return in.target.OptimizationFlags(in.compiler.Name, in.compiler.Version)
}

// Install concretises and builds a spec string ("hpl@2.3"), returning the
// root installation. Already-installed nodes are reused.
func (in *Installer) Install(specStr string) (*Installed, error) {
	spec, err := ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	root, err := Concretize(in.repo, spec, in.target, in.compiler)
	if err != nil {
		return nil, err
	}
	var rootInst *Installed
	for _, node := range root.Flatten() {
		inst, err := in.build(node)
		if err != nil {
			return nil, err
		}
		if node.Hash == root.Hash {
			rootInst = inst
		}
	}
	return rootInst, nil
}

func (in *Installer) build(node *ConcreteSpec) (*Installed, error) {
	if inst, ok := in.installed[node.Hash]; ok {
		return inst, nil
	}
	pkg, err := in.repo.Get(node.Name)
	if err != nil {
		return nil, err
	}
	inst := &Installed{
		Spec: node,
		Prefix: fmt.Sprintf("/opt/spack/%s/%s-%s/%s-%s-%s",
			in.Triple(), in.compiler.Name, in.compiler.Version, node.Name, node.Version, node.Hash),
		BuildSeconds: pkg.BuildSeconds * in.buildSlowdown,
	}
	in.installed[node.Hash] = inst
	in.order = append(in.order, node.Hash)
	in.modules.add(inst)
	return inst, nil
}

// Find returns installed packages in install order, like `spack find`.
func (in *Installer) Find() []*Installed {
	out := make([]*Installed, 0, len(in.order))
	for _, h := range in.order {
		out = append(out, in.installed[h])
	}
	return out
}

// TotalBuildSeconds sums the simulated build time of everything installed.
func (in *Installer) TotalBuildSeconds() float64 {
	total := 0.0
	for _, inst := range in.installed {
		total += inst.BuildSeconds
	}
	return total
}

// Modules returns the environment-modules view of the installed stack.
func (in *Installer) Modules() *Modules { return in.modules }

// StackRow is one line of the Table I report.
type StackRow struct {
	// Package and Version as listed in Table I.
	Package string
	Version string
}

// InstallUserStack installs the full Table I user-facing stack and returns
// the table rows in paper order.
func (in *Installer) InstallUserStack() ([]StackRow, error) {
	rows := make([]StackRow, 0, len(UserStack))
	for _, name := range UserStack {
		inst, err := in.Install(name)
		if err != nil {
			return nil, fmt.Errorf("spack: user stack: %w", err)
		}
		rows = append(rows, StackRow{Package: inst.Spec.Name, Version: inst.Spec.Version})
	}
	return rows, nil
}

// Modules models the environment-modules layer (Furlani) that exposes the
// Spack stack to users.
type Modules struct {
	byName map[string]*Installed
}

// NewModules returns an empty module tree.
func NewModules() *Modules {
	return &Modules{byName: make(map[string]*Installed)}
}

func (m *Modules) add(inst *Installed) {
	m.byName[fmt.Sprintf("%s/%s-%s", inst.Spec.Name, inst.Spec.Version, inst.Spec.Hash)] = inst
}

// Avail lists available module names, sorted (like `module avail`).
func (m *Modules) Avail() []string {
	out := make([]string, 0, len(m.byName))
	for name := range m.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Load returns the environment changes of `module load name`. The name may
// be the full "pkg/version-hash" form or just the package name when
// unambiguous.
func (m *Modules) Load(name string) (map[string]string, error) {
	inst, ok := m.byName[name]
	if !ok {
		var matches []*Installed
		for full, i := range m.byName {
			if strings.HasPrefix(full, name+"/") {
				matches = append(matches, i)
			}
		}
		switch len(matches) {
		case 0:
			return nil, fmt.Errorf("spack: no module %q", name)
		case 1:
			inst = matches[0]
		default:
			return nil, fmt.Errorf("spack: module %q is ambiguous (%d matches)", name, len(matches))
		}
	}
	return map[string]string{
		"PATH":              inst.Prefix + "/bin",
		"LD_LIBRARY_PATH":   inst.Prefix + "/lib",
		"MANPATH":           inst.Prefix + "/share/man",
		"CMAKE_PREFIX_PATH": inst.Prefix,
	}, nil
}
