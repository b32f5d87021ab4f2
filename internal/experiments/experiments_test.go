package experiments

import (
	"strings"
	"testing"

	"copernicus/internal/controller"
	"copernicus/internal/topology"
)

func TestVillinParamsScales(t *testing.T) {
	small := VillinParams(ScaleSmall)
	paper := VillinParams(ScalePaper)
	if small.NStarts >= paper.NStarts {
		t.Error("small scale should have fewer starts")
	}
	if paper.NStarts != 9 || paper.TasksPerStart != 25 || paper.SegmentNs != 50 {
		t.Errorf("paper scale deviates from the §3 protocol: %+v", paper)
	}
	if paper.Generations != 8 {
		t.Errorf("paper generations = %d, want 8", paper.Generations)
	}
}

// runSmallOnce caches one reduced-scale run for the formatter tests.
var cachedRes *controller.MSMResult

func smallResult(t *testing.T) *controller.MSMResult {
	t.Helper()
	if cachedRes != nil {
		return cachedRes
	}
	if testing.Short() {
		t.Skip("skipping fabric run in -short mode")
	}
	res, err := RunVillin(ScaleSmall, 4)
	if err != nil {
		t.Fatal(err)
	}
	cachedRes = res
	return res
}

func TestRunVillinAndFigFormatters(t *testing.T) {
	res := smallResult(t)
	if len(res.Generations) != VillinParams(ScaleSmall).Generations {
		t.Fatalf("generations = %d", len(res.Generations))
	}
	for name, f := range map[string]func(*controller.MSMResult) string{
		"Fig2": Fig2, "Fig3": Fig3, "Fig4": Fig4, "Fig5": Fig5,
	} {
		out := f(res)
		if !strings.Contains(out, "#") || len(out) < 50 {
			t.Errorf("%s output suspiciously small:\n%s", name, out)
		}
	}
	// Fig 4 must include the fraction-folded summary line.
	if !strings.Contains(Fig4(res), "final fraction folded") {
		t.Error("Fig4 missing the headline line")
	}
	// Fig 2 must list representative trajectories.
	if !strings.Contains(Fig2(res), "traj-") {
		t.Error("Fig2 missing trajectory traces")
	}
}

func TestFig6Measurement(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fabric run in -short mode")
	}
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if r.RankBytesPerStep <= 0 {
		t.Error("no rank-level traffic measured")
	}
	if r.EnsembleBytes <= 0 || r.EnsembleSeconds <= 0 {
		t.Error("no ensemble-level traffic measured")
	}
	if r.HeartbeatBytes <= 0 || r.HeartbeatBytes >= 200 {
		t.Errorf("heartbeat = %d bytes, paper requires <200", r.HeartbeatBytes)
	}
	// The hierarchy claim: per-step simulation traffic exceeds per-second
	// ensemble traffic by orders of magnitude at these scales.
	out := FormatFig6(r)
	if !strings.Contains(out, "message passing") || !strings.Contains(out, "heartbeat") {
		t.Errorf("Fig6 table malformed:\n%s", out)
	}
}

func TestFig789Sweep(t *testing.T) {
	points, err := Fig7Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 30 {
		t.Fatalf("sweep points = %d", len(points))
	}
	f7, f8, f9 := FormatFig7(points), FormatFig8(points), FormatFig9(points)
	for name, out := range map[string]string{"Fig7": f7, "Fig8": f8, "Fig9": f9} {
		if len(strings.Split(out, "\n")) < len(points) {
			t.Errorf("%s table too short", name)
		}
	}
	// The c=96 line must reach 21,600 cores (the 96×225 saturation point).
	if !strings.Contains(f7, "21600") {
		t.Error("sweep missing the 21,600-core point")
	}
}

func TestT1T2Reports(t *testing.T) {
	s1, err := T1Heartbeat()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s1, "bytes") {
		t.Errorf("T1 report: %s", s1)
	}
	s2, err := T2SingleSimScaling()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s2, "ns/day") || !strings.Contains(s2, "bytes/step") {
		t.Errorf("T2 report: %s", s2)
	}
}

// TestRankTrafficMatchesParentCapture pins rankTraffic against per-step
// bytes and messages captured by running the deleted md.RunRanks driver at
// commit 2d61cbb (Fig 6's and T2's configurations, 20 steps each). These are
// captured values: never regenerate them from rankTraffic itself.
func TestRankTrafficMatchesParentCapture(t *testing.T) {
	water64, err := topology.WaterBox(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	lj125, err := topology.LJFluid(125, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	lj6, err := topology.LJFluid(6, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		sys         *topology.System
		ranks       int
		bytes, msgs int
	}{
		{"WaterBox(64)", water64, 1, 0, 0},
		{"WaterBox(64)", water64, 2, 9216, 4},
		{"WaterBox(64)", water64, 4, 27648, 24},
		{"LJFluid(125)", lj125, 2, 6000, 4},
		{"LJFluid(125)", lj125, 4, 18000, 24},
		{"LJFluid(125)", lj125, 8, 42000, 112},
		{"LJFluid(6) clamped to 6 ranks", lj6, 8, 1440, 60},
	} {
		bytes, msgs := rankTraffic(c.sys.Top.NAtoms(), c.ranks)
		if bytes != c.bytes || msgs != c.msgs {
			t.Errorf("%s over %d ranks: %d B, %d msgs per step; parent RunRanks moved %d B in %d msgs",
				c.name, c.ranks, bytes, msgs, c.bytes, c.msgs)
		}
	}
}
