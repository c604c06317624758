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

// rescans returns "file:line what" for every construct in the Go source
// src that rebuilds a round's sequence sets by hand: a range over a
// collector's Rx slice, or a map[uint32]bool set type.
func rescans(fset *token.FileSet, path string, src any) ([]string, error) {
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var found []string
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Rx" {
				found = append(found, fset.Position(n.Pos()).String()+" range over .Rx")
			}
		case *ast.MapType:
			key, kok := n.Key.(*ast.Ident)
			val, vok := n.Value.(*ast.Ident)
			if kok && vok && key.Name == "uint32" && val.Name == "bool" {
				found = append(found, fset.Position(n.Pos()).String()+" map[uint32]bool")
			}
		}
		return true
	})
	return found, nil
}

// TestAnalysisReadsIndexedRounds keeps trace.NewIndex the only full-trace
// scan behind the Table 1, figure and coverage queries: no non-test file
// under internal/analysis, internal/report or cmd/ may range over a
// collector's Rx slice or build map[uint32]bool sequence sets, the
// per-query rescans that once dominated figure regeneration.
func TestAnalysisReadsIndexedRounds(t *testing.T) {
	fset := token.NewFileSet()
	// The scanner must see each form the ratchet forbids.
	probe := "package p\nfunc f() { for _, r := range c.Rx {}; for i := range round.Rx {}; m := map[uint32]bool{}; n := make(map[uint32]bool) }\n"
	if got, err := rescans(fset, "probe.go", probe); err != nil || len(got) != 4 {
		t.Fatalf("scanner found %v (err %v) in the probe, want 4", got, err)
	}
	scanned := 0
	for _, root := range []string{"internal/analysis", "internal/report", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			scanned++
			found, err := rescans(fset, path, nil)
			for _, f := range found {
				t.Errorf("%s: read sequence sets from trace.NewIndex instead", f)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if scanned < 10 {
		t.Fatalf("scanned only %d files", scanned)
	}
}
