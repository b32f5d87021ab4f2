package worker

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// shellFiles are the package's files that put the core on a network: every
// other non-test file is the core's.
var shellFiles = map[string]bool{"worker.go": true}

// TestWorkerCoreIsTransportFree: no core file imports the overlay or a
// network package, reads the wall clock or starts a goroutine, so whatever
// drives the core — the shell or a simulator — owns time and concurrency.
func TestWorkerCoreIsTransportFree(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	core := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || shellFiles[name] {
			continue
		}
		core++
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		timeName := "" // what the file calls package time, if it imports it
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case path == "copernicus/internal/overlay", path == "net", strings.HasPrefix(path, "net/"):
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			case path == "time":
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s starts a goroutine", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && timeName != "" && x.Name == timeName {
					switch n.Sel.Name {
					case "Now", "Since", "Until":
						t.Errorf("%s reads the wall clock: time.%s", fset.Position(n.Pos()), n.Sel.Name)
					}
				}
			}
			return true
		})
	}
	if core < 1 {
		t.Fatalf("checked %d core files; the package layout changed under this test", core)
	}
}
