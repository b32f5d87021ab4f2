package des

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// TestTenantScenarioMatchesParentGolden: the multi-tenant scenario scores
// byte for byte what it scored in the build that first ran the shipped
// worker core (worker.Core) on the fleet and submitted each burst as a
// project, at the default parameters and at TestTenantScenarioDeterministic's
// trimmed ones. The goldens were captured from that build; they are captured
// bytes — never regenerate them from current code.
func TestTenantScenarioMatchesParentGolden(t *testing.T) {
	trimmed := DefaultTenantParams()
	trimmed.Tenants = 300
	trimmed.HorizonSeconds = 600
	for file, p := range map[string]TenantParams{
		"testdata/tenants_default.golden": DefaultTenantParams(),
		"testdata/tenants_trimmed.golden": trimmed,
	} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateTenants(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v\n", res); got != string(want) {
			t.Errorf("%s drifted:\n got  %s want %s", file, got, want)
		}
	}
}

// TestScalingSweepMatchesParentGolden: the scaling study, run on the fleet,
// scores what the build whose list scheduler it replaced scored, at the
// single-core reference tres(1) and over Fig7Points' grid
// (internal/experiments): counts exactly, times and ratios to 1e-12
// relative. The golden was captured from that build; it is captured bytes —
// never regenerate it from current code.
func TestScalingSweepMatchesParentGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/scaling_sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []SweepPoint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(PaperParams(), []int{1}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Sweep(PaperParams(), []int{1, 12, 24, 48, 96},
		[]int{100, 225, 500, 1000, 2400, 5400, 10800, 21600, 50000})
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, grid...)
	if len(got) != len(want) {
		t.Fatalf("%d points, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.TotalCores != w.TotalCores || g.CoresPerSim != w.CoresPerSim || g.Workers != w.Workers ||
			g.Commands != w.Commands || g.SimulatedNs != w.SimulatedNs {
			t.Errorf("point %d: %+v, golden %+v", i, g, w)
			continue
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"Hours", g.Hours, w.Hours},
			{"BusyFraction", g.BusyFraction, w.BusyFraction},
			{"BandwidthMBps", g.BandwidthMBps, w.BandwidthMBps},
			{"Efficiency", g.Efficiency, w.Efficiency},
		} {
			if math.Abs(f.got-f.want) > 1e-12*math.Abs(f.want) {
				t.Errorf("N=%d c=%d: %s = %v, golden %v", w.TotalCores, w.CoresPerSim, f.name, f.got, f.want)
			}
		}
	}
}
