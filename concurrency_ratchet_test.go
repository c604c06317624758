package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// goStatements returns "file:line" for every go statement in the Go
// source src.
func goStatements(fset *token.FileSet, path string, src any) ([]string, error) {
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var found []string
	ast.Inspect(file, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			found = append(found, fset.Position(g.Pos()).String())
		}
		return true
	})
	return found, nil
}

// TestPoolIsTheOnlyConcurrency keeps the harness worker pool the one
// level of concurrency: a round runs single-threaded, and the pool
// spreads independent rounds over the cores. No non-test file under
// internal/ outside internal/harness may start a goroutine.
func TestPoolIsTheOnlyConcurrency(t *testing.T) {
	fset := token.NewFileSet()
	// The scanner must see a go statement in each form.
	probe := "package p\nfunc f() { go g(); go func() {}(); defer h() }\n"
	if got, err := goStatements(fset, "probe.go", probe); err != nil || len(got) != 2 {
		t.Fatalf("scanner found %v (err %v) in the probe, want 2", got, err)
	}
	scanned := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "harness") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		scanned++
		found, err := goStatements(fset, path, nil)
		for _, f := range found {
			t.Errorf("%s: go statement outside internal/harness; run independent work as pool units instead", f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files", scanned)
	}
}
