package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"copernicus/internal/controller"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// shellFiles are the package's files that put the core on a network: every
// other non-test file is the core's.
var shellFiles = map[string]bool{"server.go": true, "monitor.go": true}

// TestCoreIsTransportFree: no core file imports the overlay or a network
// package, reads the wall clock or starts a goroutine, so whatever drives the
// core — the shell, a simulator, a checker — owns time and concurrency.
func TestCoreIsTransportFree(t *testing.T) {
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
	if core < 4 {
		t.Fatalf("checked %d core files; the package layout changed under this test", core)
	}
}

// TestCoreRestoreStampsOwnOrigin: a snapshot written by one server (a primary)
// and restored by another (its promoted standby) hands its commands out from
// the restoring server, so a result goes there and not to the fenced writer.
func TestCoreRestoreStampsOwnOrigin(t *testing.T) {
	core := func(origin string) *Core {
		reg := controller.NewRegistry()
		reg.Register("test", func() controller.Controller {
			return &testController{submit: []wire.CommandSpec{cmdSpec("c1")}}
		})
		return NewCore(reg, Config{Obs: testObs}, Hooks{Origin: origin, Clock: lcClock})
	}
	a := core("A")
	if _, err := a.Submit(&wire.ProjectSubmit{Name: "proj", Controller: "test"}); err != nil {
		t.Fatal(err)
	}
	snap, err := a.captureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := core("B")
	b.recover(&store.Recovered{Snapshot: snap})
	wl := b.q.Match(announce("w1", 1).Info)
	if len(wl.Commands) != 1 || wl.Commands[0].Origin != "B" {
		t.Fatalf("restored server handed out %+v, want c1 with Origin B", wl.Commands)
	}
}
