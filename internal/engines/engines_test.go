package engines

import (
	"context"
	"math"
	"testing"

	"copernicus/internal/bar"
	"copernicus/internal/landscape"
	"copernicus/internal/md"
	"copernicus/internal/stats"
	"copernicus/internal/wire"
)

func landscapeSpec(t *testing.T, p *LandscapePayload) wire.CommandSpec {
	t.Helper()
	payload, err := wire.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return wire.CommandSpec{ID: "c1", Project: "p", Type: LandscapeName, MinCores: 1, MaxCores: 1, Payload: payload}
}

func defaultLandscapePayload() *LandscapePayload {
	lp := landscape.DefaultParams()
	m, _ := landscape.New(lp)
	return &LandscapePayload{
		Params:     lp,
		Start:      m.UnfoldedStart(0, 1),
		DurationNs: 20,
		FrameNs:    2,
		Seed:       42,
	}
}

func TestLandscapeEngineBasics(t *testing.T) {
	eng := &LandscapeEngine{}
	out, err := eng.Run(context.Background(), landscapeSpec(t, defaultLandscapePayload()), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res LandscapeOutput
	if err := wire.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 11 { // start + 10 frames
		t.Fatalf("frames = %d, want 11", len(res.Frames))
	}
	if len(res.RMSD) != len(res.Frames) || len(res.Times) != len(res.Frames) {
		t.Fatal("parallel arrays misaligned")
	}
	if math.Abs(res.Times[len(res.Times)-1]-20) > 1e-9 {
		t.Errorf("final time = %v", res.Times[len(res.Times)-1])
	}
	for _, r := range res.RMSD {
		if r < 0 || r > 30 {
			t.Errorf("implausible RMSD %v", r)
		}
	}
}

func TestLandscapeEngineDeterministic(t *testing.T) {
	eng := &LandscapeEngine{}
	run := func() LandscapeOutput {
		out, err := eng.Run(context.Background(), landscapeSpec(t, defaultLandscapePayload()), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var res LandscapeOutput
		if err := wire.Unmarshal(out, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Frames {
		for d := range a.Frames[i] {
			if a.Frames[i][d] != b.Frames[i][d] {
				t.Fatal("engine not deterministic")
			}
		}
	}
}

func TestLandscapeEngineCheckpointResume(t *testing.T) {
	// Run to completion with checkpoints every 4 ns, capture the one at
	// ~8 ns, resume from it, and verify the tail matches the uninterrupted
	// run exactly — the §2.3 hand-off guarantee.
	eng := &LandscapeEngine{CheckpointEveryNs: 4}
	var checkpoints [][]byte
	spec := landscapeSpec(t, defaultLandscapePayload())
	full, err := eng.Run(context.Background(), spec, 1, func(ck []byte) {
		checkpoints = append(checkpoints, append([]byte(nil), ck...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	var fullOut LandscapeOutput
	if err := wire.Unmarshal(full, &fullOut); err != nil {
		t.Fatal(err)
	}

	resumeSpec := spec
	resumeSpec.Checkpoint = checkpoints[0]
	resumed, err := eng.Run(context.Background(), resumeSpec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resOut LandscapeOutput
	if err := wire.Unmarshal(resumed, &resOut); err != nil {
		t.Fatal(err)
	}
	if len(resOut.Frames) != len(fullOut.Frames) {
		t.Fatalf("resumed run has %d frames, full run %d", len(resOut.Frames), len(fullOut.Frames))
	}
	for i := range fullOut.Frames {
		for d := range fullOut.Frames[i] {
			if fullOut.Frames[i][d] != resOut.Frames[i][d] {
				t.Fatalf("frame %d differs after resume", i)
			}
		}
	}
}

func TestLandscapeEngineErrors(t *testing.T) {
	eng := &LandscapeEngine{}
	bad := landscapeSpec(t, defaultLandscapePayload())
	bad.Payload = []byte("junk")
	if _, err := eng.Run(context.Background(), bad, 1, nil); err == nil {
		t.Error("garbage payload accepted")
	}
	p := defaultLandscapePayload()
	p.DurationNs = 0
	if _, err := eng.Run(context.Background(), landscapeSpec(t, p), 1, nil); err == nil {
		t.Error("zero duration accepted")
	}
	p = defaultLandscapePayload()
	p.Params.Dimension = 0
	if _, err := eng.Run(context.Background(), landscapeSpec(t, p), 1, nil); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestLandscapeEngineCancellation(t *testing.T) {
	eng := &LandscapeEngine{}
	p := defaultLandscapePayload()
	p.DurationNs = 1e6 // would take forever
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, landscapeSpec(t, p), 1, nil); err == nil {
		t.Error("cancelled run returned no error")
	}
}

func TestMDEngineRuns(t *testing.T) {
	cfg := md.DefaultConfig()
	cfg.Thermostat = md.Berendsen
	cfg.Temperature = 120
	cfg.TauT = 0.1
	cfg.Cutoff = 0.7
	cfg.Skin = 0.1
	p := &MDPayload{
		SystemKind: "ljfluid", SystemN: 64, Density: 8, BuildSeed: 1,
		Config: cfg, Steps: 200, SampleEvery: 50,
	}
	payload, err := wire.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := wire.CommandSpec{ID: "md1", Project: "p", Type: MDName, MinCores: 1, MaxCores: 1, Payload: payload}
	out, err := (&MDEngine{}).Run(context.Background(), spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res MDOutput
	if err := wire.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Steps != 200 {
		t.Errorf("steps = %d", res.Steps)
	}
	if len(res.Temperatures) < 4 {
		t.Errorf("samples = %d", len(res.Temperatures))
	}
	if res.Final.Total() == 0 {
		t.Error("final energies empty")
	}
}

func TestMDEngineCheckpointResume(t *testing.T) {
	cfg := md.DefaultConfig()
	cfg.Thermostat = md.NoseHoover
	cfg.Temperature = 120
	cfg.Cutoff = 0.7
	cfg.Skin = 0.1
	mk := func(ck []byte) wire.CommandSpec {
		p := &MDPayload{
			SystemKind: "ljfluid", SystemN: 64, Density: 8, BuildSeed: 1,
			Config: cfg, Steps: 100, CheckpointEvery: 40,
		}
		payload, err := wire.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return wire.CommandSpec{
			ID: "md1", Project: "p", Type: MDName, MinCores: 1, MaxCores: 1,
			Payload: payload, Checkpoint: ck,
		}
	}
	var ck []byte
	full, err := (&MDEngine{}).Run(context.Background(), mk(nil), 1, func(c []byte) {
		if ck == nil {
			ck = append([]byte(nil), c...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint emitted")
	}
	resumed, err := (&MDEngine{}).Run(context.Background(), mk(ck), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b MDOutput
	if err := wire.Unmarshal(full, &a); err != nil {
		t.Fatal(err)
	}
	if err := wire.Unmarshal(resumed, &b); err != nil {
		t.Fatal(err)
	}
	if a.Final != b.Final {
		t.Errorf("resumed energies differ: %+v vs %+v", a.Final, b.Final)
	}
}

func TestMDEngineErrors(t *testing.T) {
	eng := &MDEngine{}
	p := &MDPayload{SystemKind: "nonsense", SystemN: 10, Steps: 10, Config: md.DefaultConfig()}
	payload, _ := wire.Marshal(p)
	spec := wire.CommandSpec{ID: "x", Project: "p", Type: MDName, MinCores: 1, MaxCores: 1, Payload: payload}
	if _, err := eng.Run(context.Background(), spec, 1, nil); err == nil {
		t.Error("unknown system kind accepted")
	}
	p.SystemKind = "ljfluid"
	p.Steps = 0
	payload, _ = wire.Marshal(p)
	spec.Payload = payload
	if _, err := eng.Run(context.Background(), spec, 1, nil); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestBAREngineStatistics(t *testing.T) {
	p := &BARPayload{
		LambdaFrom: 0, LambdaTo: 1,
		Displacement: 1.0, Offset: 2.0,
		NSamples: 20000, Seed: 3,
	}
	payload, err := wire.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := wire.CommandSpec{ID: "b", Project: "p", Type: BARName, MinCores: 1, MaxCores: 1, Payload: payload}
	out, err := (&BAREngine{}).Run(context.Background(), spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res BAROutput
	if err := wire.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Forward) != 20000 || len(res.Reverse) != 20000 {
		t.Fatalf("samples: %d fwd, %d rev", len(res.Forward), len(res.Reverse))
	}
	// ⟨W_F⟩ = ΔU mean from state 0 = d²/2 + offset; ⟨W_R⟩ = d²/2 − offset.
	wantF := 0.5*p.Displacement*p.Displacement + p.Offset
	wantR := 0.5*p.Displacement*p.Displacement - p.Offset
	if got := stats.Mean(res.Forward); math.Abs(got-wantF) > 0.05 {
		t.Errorf("⟨W_F⟩ = %v, want %v", got, wantF)
	}
	if got := stats.Mean(res.Reverse); math.Abs(got-wantR) > 0.05 {
		t.Errorf("⟨W_R⟩ = %v, want %v", got, wantR)
	}
	// The BAR estimate over these samples recovers the offset.
	est, err := bar.Estimate(res.Forward, res.Reverse, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.DeltaF-2.0) > 0.05 {
		t.Errorf("ΔF = %v, want 2.0", est.DeltaF)
	}
}

func TestBAREngineErrors(t *testing.T) {
	p := &BARPayload{NSamples: 0}
	payload, _ := wire.Marshal(p)
	spec := wire.CommandSpec{ID: "b", Project: "p", Type: BARName, MinCores: 1, MaxCores: 1, Payload: payload}
	if _, err := (&BAREngine{}).Run(context.Background(), spec, 1, nil); err == nil {
		t.Error("zero samples accepted")
	}
	spec.Payload = []byte("junk")
	if _, err := (&BAREngine{}).Run(context.Background(), spec, 1, nil); err == nil {
		t.Error("garbage payload accepted")
	}
}

func TestDefaultEngineSet(t *testing.T) {
	engs := Default()
	if len(engs) != 4 {
		t.Fatalf("default engines = %d", len(engs))
	}
	names := map[string]bool{}
	for _, e := range engs {
		names[e.Name()] = true
	}
	for _, want := range []string{LandscapeName, MDName, BARName, RepexMDName} {
		if !names[want] {
			t.Errorf("missing engine %q", want)
		}
	}
}
