package trace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// jsonlCalls returns "file:line name" for every call of a method or
// function named ReadJSONL or WriteJSONL in the Go source src.
func jsonlCalls(fset *token.FileSet, path string, src any) ([]string, error) {
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var calls []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fn.Sel.Name
		case *ast.Ident:
			name = fn.Name
		}
		if name == "ReadJSONL" || name == "WriteJSONL" {
			calls = append(calls, fset.Position(call.Pos()).String()+" "+name)
		}
		return true
	})
	return calls, nil
}

// TestNoInternalJSONLCalls keeps JSONL an export format: no non-test
// file under internal/ may call ReadJSONL or WriteJSONL, so the traffic
// cache and the stores cannot slide back onto encoding/json. Exporters
// (cmd/carqsim, cmd/carqtrace) and the benchmark probes live outside
// internal/ and may.
func TestNoInternalJSONLCalls(t *testing.T) {
	fset := token.NewFileSet()
	// The scanner must see a call in each form the ratchet forbids.
	probe := "package p\nfunc f() { c.WriteJSONL(w); trace.ReadJSONL(r); ReadJSONL(r) }\n"
	if got, err := jsonlCalls(fset, "probe.go", probe); err != nil || len(got) != 3 {
		t.Fatalf("scanner found %v (err %v) in the probe, want 3 calls", got, err)
	}
	scanned := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		scanned++
		calls, err := jsonlCalls(fset, path, nil)
		for _, c := range calls {
			t.Errorf("%s: JSONL is the export format; internal code uses AppendBinary/DecodeBinary", c)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files under internal/", scanned)
	}
}
