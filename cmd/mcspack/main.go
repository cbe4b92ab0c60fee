// Command mcspack drives the Spack-like package manager for the
// linux-sifive-u74mc target: install specs and list what they installed,
// inspect the dependency DAG and the generated environment modules.
//
// Usage:
//
//	mcspack install <spec>...   # e.g. mcspack install hpl@2.3 stream
//	mcspack stack               # install and print the Table I user stack
//	mcspack spec <spec>         # show the concretised DAG
//	mcspack modules             # list the user stack's environment modules
//	mcspack load <module>       # print the env changes of module load
//
// Each run starts from an empty installer: modules and load install the
// user stack first.
//
// Flags: [-target u74mc] [-compiler gcc@10.3.0]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"montecimone/internal/archspec"
	"montecimone/internal/report"
	"montecimone/internal/spack"
)

func main() {
	target := flag.String("target", "u74mc", "archspec microarchitecture target")
	compiler := flag.String("compiler", "gcc@10.3.0", "toolchain as name@version")
	flag.Parse()
	if err := run(os.Stdout, *target, *compiler, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "mcspack:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, target, compilerSpec string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (install, stack, spec, modules, load)")
	}
	name, version, ok := strings.Cut(compilerSpec, "@")
	if !ok || name == "" || version == "" {
		return fmt.Errorf("compiler must be name@version, got %q", compilerSpec)
	}
	comp := spack.Compiler{Name: name, Version: version}
	installer, err := spack.NewInstaller(spack.BuiltinRepo(), target, comp)
	if err != nil {
		return err
	}
	flags, err := installer.CompilerFlags()
	if err != nil {
		return err
	}

	switch args[0] {
	case "install":
		if len(args) < 2 {
			return fmt.Errorf("install needs at least one spec")
		}
		fmt.Fprintf(w, "target: %s (%s)\n", installer.Triple(), flags)
		for _, specStr := range args[1:] {
			inst, err := installer.Install(specStr)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "installed %s (simulated native build %.0f s)\n", inst.Spec, inst.BuildSeconds)
		}
		return printFind(w, installer)
	case "stack":
		fmt.Fprintf(w, "target: %s (%s)\n", installer.Triple(), flags)
		rows, err := installer.InstallUserStack()
		if err != nil {
			return err
		}
		if err := report.TableI(rows).Write(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "total simulated native build time: %.1f h\n", installer.TotalBuildSeconds()/3600)
		return nil
	case "spec":
		if len(args) != 2 {
			return fmt.Errorf("spec needs exactly one argument")
		}
		parsed, err := spack.ParseSpec(args[1])
		if err != nil {
			return err
		}
		ta, err := archspec.Lookup(target)
		if err != nil {
			return err
		}
		root, err := spack.Concretize(spack.BuiltinRepo(), parsed, ta, comp)
		if err != nil {
			return err
		}
		for _, node := range root.Flatten() {
			fmt.Fprintf(w, "%s\n", node)
		}
		return nil
	case "modules":
		if _, err := installer.InstallUserStack(); err != nil {
			return err
		}
		for _, m := range installer.Modules().Avail() {
			fmt.Fprintln(w, m)
		}
		return nil
	case "load":
		if len(args) != 2 {
			return fmt.Errorf("load needs exactly one module name")
		}
		// Loading only makes sense against an installed stack.
		if _, err := installer.InstallUserStack(); err != nil {
			return err
		}
		env, err := installer.Modules().Load(args[1])
		if err != nil {
			return err
		}
		for _, key := range []string{"PATH", "LD_LIBRARY_PATH", "MANPATH", "CMAKE_PREFIX_PATH"} {
			fmt.Fprintf(w, "prepend-path %s %s\n", key, env[key])
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func printFind(w io.Writer, installer *spack.Installer) error {
	t := &report.Table{Title: "installed packages", Headers: []string{"Spec", "Prefix"}}
	for _, inst := range installer.Find() {
		t.AddRow(inst.Spec.String(), inst.Prefix)
	}
	if len(t.Rows) == 0 {
		fmt.Fprintln(w, "no packages installed")
		return nil
	}
	return t.Write(w)
}
