package copernicus

import (
	"math"
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
