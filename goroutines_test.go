package montecimone_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goroutineAllowlist names every function in non-test code under
// internal/ and cmd/ that may hold a go statement, with the measurement
// that justifies it. A parallel speedup that no benchmark workload shows
// is a hypothesis, so a new site needs a number before it gets a line
// here.
var goroutineAllowlist = map[string]string{
	"fleet.(*Fleet).Run": "the cluster worker pool: on the fleet-monitored " +
		"workload the pool runs two clusters at once (fleet.max_active reads 2)",
}

// TestGoroutineInventory lists every go statement in non-test code under
// internal/ and cmd/ and fails on a site missing from the allowlist, or an
// allowlist entry whose site is gone.
func TestGoroutineInventory(t *testing.T) {
	found := map[string][]string{} // site -> positions
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						site := f.Name.Name + "." + declName(decl)
						found[site] = append(found[site], fset.Position(g.Pos()).String())
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sites := make([]string, 0, len(found))
	for site := range found {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		if _, ok := goroutineAllowlist[site]; !ok {
			t.Errorf("go statement in %s at %s: not in goroutineAllowlist; "+
				"measure the speedup on a benchmark workload before adding it",
				site, strings.Join(found[site], ", "))
		}
	}
	for site := range goroutineAllowlist {
		if _, ok := found[site]; !ok {
			t.Errorf("goroutineAllowlist lists %s, which has no go statement", site)
		}
	}
}

// declName renders a top-level declaration as Func or (Recv).Method.
func declName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "<package-level declaration>"
	}
	if fn.Recv == nil {
		return fn.Name.Name
	}
	return "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
}
