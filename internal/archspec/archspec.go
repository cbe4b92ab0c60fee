// Package archspec reimplements the microarchitecture detection and
// labelling library the paper relies on (Culpo et al., archspec 0.1.3):
// a database of microarchitecture labels with per-compiler optimisation
// flags. The paper notes that explicit support for the linux-sifive-u74mc
// target triple was already present upstream and worked without
// modification; this package encodes that target along with the
// comparison machines'.
package archspec

import (
	"fmt"
	"strconv"
	"strings"
)

// Microarch describes one microarchitecture entry.
type Microarch struct {
	// Name is the archspec label ("u74mc", "power9le", "thunderx2").
	Name string
	// Vendor is the silicon vendor.
	Vendor string
	// Family is the ISA family label ("riscv64", "ppc64le", "aarch64",
	// "x86_64").
	Family string
	// compilerFlags maps compiler name to minimum-version/flag pairs.
	compilerFlags map[string][]versionedFlags
}

type versionedFlags struct {
	minMajor int
	flags    string
}

// db is the built-in microarchitecture database.
var db = buildDB()

func buildDB() map[string]*Microarch {
	entries := []*Microarch{
		{
			Name: "riscv64", Vendor: "generic", Family: "riscv64",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 7, flags: "-march=rv64gc"}},
			},
		},
		{
			Name: "u74mc", Vendor: "sifive", Family: "riscv64",
			compilerFlags: map[string][]versionedFlags{
				// GCC 10.3 (the deployed toolchain) can tune for the
				// 7-series pipeline but cannot emit Zba/Zbb; minimal
				// bit-manipulation code generation landed in GCC 12.
				"gcc": {
					{minMajor: 10, flags: "-march=rv64gc -mtune=sifive-7-series"},
					{minMajor: 12, flags: "-march=rv64gc_zba_zbb -mtune=sifive-7-series"},
				},
			},
		},
		{
			Name: "ppc64le", Vendor: "generic", Family: "ppc64le",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 7, flags: "-mcpu=powerpc64le"}},
			},
		},
		{
			Name: "power9le", Vendor: "ibm", Family: "ppc64le",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 7, flags: "-mcpu=power9 -mtune=power9"}},
			},
		},
		{
			Name: "power8le", Vendor: "ibm", Family: "ppc64le",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 6, flags: "-mcpu=power8 -mtune=power8"}},
			},
		},
		{
			Name: "aarch64", Vendor: "generic", Family: "aarch64",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 6, flags: "-march=armv8-a"}},
			},
		},
		{
			Name: "armv8.1a", Vendor: "generic", Family: "aarch64",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 6, flags: "-march=armv8.1-a"}},
			},
		},
		{
			Name: "thunderx2", Vendor: "cavium", Family: "aarch64",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 7, flags: "-mcpu=thunderx2t99"}},
			},
		},
		{
			Name: "x86_64", Vendor: "generic", Family: "x86_64",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 4, flags: "-march=x86-64 -mtune=generic"}},
			},
		},
		{
			Name: "skylake", Vendor: "intel", Family: "x86_64",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 6, flags: "-march=skylake -mtune=skylake"}},
			},
		},
		{
			Name: "zen2", Vendor: "amd", Family: "x86_64",
			compilerFlags: map[string][]versionedFlags{
				"gcc": {{minMajor: 9, flags: "-march=znver2 -mtune=znver2"}},
			},
		},
	}
	m := make(map[string]*Microarch, len(entries))
	for _, e := range entries {
		m[e.Name] = e
	}
	return m
}

// Lookup returns the microarchitecture entry for a label.
func Lookup(name string) (*Microarch, error) {
	m, ok := db[name]
	if !ok {
		return nil, fmt.Errorf("archspec: unknown microarchitecture %q", name)
	}
	return m, nil
}

// Triple returns the Spack-style target triple for a platform/os pair,
// e.g. "linux-sifive-u74mc" as quoted in the paper.
func (m *Microarch) Triple(platform string) string {
	return platform + "-" + m.Vendor + "-" + m.Name
}

// OptimizationFlags returns the compiler flags archspec emits for this
// microarchitecture and compiler version ("gcc", "10.3.0"). The newest
// flag set whose minimum version is satisfied wins.
func (m *Microarch) OptimizationFlags(compiler, version string) (string, error) {
	entries, ok := m.compilerFlags[compiler]
	if !ok {
		return "", fmt.Errorf("archspec: no flags for compiler %q on %s", compiler, m.Name)
	}
	major, err := majorOf(version)
	if err != nil {
		return "", fmt.Errorf("archspec: %s %s: %w", compiler, version, err)
	}
	best := ""
	bestMin := -1
	for _, e := range entries {
		if major >= e.minMajor && e.minMajor > bestMin {
			best = e.flags
			bestMin = e.minMajor
		}
	}
	if bestMin < 0 {
		return "", fmt.Errorf("archspec: %s %s too old for %s", compiler, version, m.Name)
	}
	return best, nil
}

func majorOf(version string) (int, error) {
	head := version
	if i := strings.IndexByte(version, '.'); i >= 0 {
		head = version[:i]
	}
	major, err := strconv.Atoi(head)
	if err != nil {
		return 0, fmt.Errorf("bad version %q", version)
	}
	return major, nil
}
