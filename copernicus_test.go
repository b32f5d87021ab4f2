package copernicus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// sanity-check that the public facade exposes a working surface.
func TestPublicAPISurface(t *testing.T) {
	model, err := NewFoldingModel(DefaultFoldingParams())
	if err != nil {
		t.Fatal(err)
	}
	if model.Dim() != 3 {
		t.Errorf("Dim = %d", model.Dim())
	}
	sys, err := LJFluid(64, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMDConfig()
	cfg.Cutoff = 0.7
	sim, err := NewMD(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(10); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(sim.Temperature()) {
		t.Error("temperature NaN")
	}
	ref, err := ScalingReference(PaperScalingParams())
	if err != nil {
		t.Fatal(err)
	}
	if ref < 1e5 || ref > 1.2e5 {
		t.Errorf("tres(1) = %v", ref)
	}
	reg := DefaultControllerRegistry()
	if got := len(reg.Names()); got != 3 {
		t.Errorf("bundled controllers = %d", got)
	}
}

// TestPublicAPINamesMatchGolden pins the facade's exported names to
// testdata/api.golden, one per line, sorted: the names copernicus.go
// declared when the golden was captured. A name added, removed or renamed
// fails here; the golden is then updated by hand as a reviewed change, never
// regenerated from the code it checks.
func TestPublicAPINamesMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/api.golden")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "copernicus.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	names = slices.DeleteFunc(names, func(n string) bool { return !ast.IsExported(n) })
	slices.Sort(names)
	if got := strings.Join(names, "\n") + "\n"; got != string(want) {
		t.Errorf("public API drifted from testdata/api.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
