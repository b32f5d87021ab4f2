package controller

import (
	"testing"

	"copernicus/internal/landscape"
	"copernicus/internal/msm"
	"copernicus/internal/rng"
	"copernicus/internal/wire"
)

// msmParamsPreStream is the MSMParams field set from before the streaming
// pipeline existed, used to pin that old parameter blobs decode with every
// stream field at its zero value (batch mode).
type msmParamsPreStream struct {
	Landscape          landscape.Params
	NStarts            int
	TasksPerStart      int
	SegmentNs          float64
	FrameNs            float64
	SegmentsPerGen     int
	Generations        int
	Clusters           int
	LagNs              float64
	Weighting          msm.Weighting
	PropagateNs        float64
	NearNativeRMSD     float64
	MinCores, MaxCores int
	Seed               uint64
}

// TestPreStreamMSMParamsDecode: a project submitted (and WAL-journaled) by
// a pre-streaming server must replay on the current binary in batch mode —
// Stream false, every cadence/convergence knob zero.
func TestPreStreamMSMParamsDecode(t *testing.T) {
	old := msmParamsPreStream{
		Landscape: landscape.DefaultParams(),
		NStarts:   3, TasksPerStart: 2, SegmentNs: 10, FrameNs: 2,
		Generations: 2, Clusters: 8, LagNs: 4,
		Weighting: msm.AdaptiveWeighting, Seed: 5,
	}
	raw, err := wire.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	var got MSMParams
	if err := wire.Unmarshal(raw, &got); err != nil {
		t.Fatalf("pre-stream MSMParams failed to decode: %v", err)
	}
	if got.NStarts != 3 || got.TasksPerStart != 2 || got.SegmentNs != 10 ||
		got.Clusters != 8 || got.Seed != 5 {
		t.Errorf("pre-stream fields corrupted: %+v", got)
	}
	if got.Stream || got.StreamEveryNs != 0 || got.StreamMinDist != 0 ||
		got.ConvergeTol != 0 || got.ConvergeChecks != 0 {
		t.Errorf("stream fields must decode as zero values, got Stream=%v Every=%g MinDist=%g Tol=%g Checks=%d",
			got.Stream, got.StreamEveryNs, got.StreamMinDist, got.ConvergeTol, got.ConvergeChecks)
	}
}

// msmStatePreStream is the saved MSM state's field set from before
// streaming — no Stream pointer, no per-command watermarks, no convergence
// latch.
type msmStatePreStream struct {
	P                  MSMParams
	Rand               []byte
	Gen                int
	SegDone            int
	InFlight           map[string]string
	Trajs              []msmTraj
	NextTraj           int
	NextCmd            int
	MinRMSD            float64
	FirstFoldedGen     int
	FirstNearNativeGen int
	Stats              []GenerationStats
	SegTarget          int
}

// TestPreStreamControllerSnapshotRestores: a durable controller snapshot
// captured before streaming restores into the current MSMController with
// the stream disabled — the controller continues in batch mode rather than
// erroring out or fabricating stream state.
func TestPreStreamControllerSnapshotRestores(t *testing.T) {
	randState, err := rng.New(9).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p := tinyMSMParams()
	if err := (&p).validate(); err != nil {
		t.Fatal(err)
	}
	old := msmStatePreStream{
		P: p, Rand: randState, Gen: 1, SegDone: 2,
		InFlight: map[string]string{"cmd-1": "t0"},
		Trajs: []msmTraj{{
			ID: "t0", Times: []float64{0}, Frames: [][]float64{{0, 0}},
			RMSD: []float64{1}, Current: []float64{0, 0}, Alive: true,
		}},
		NextTraj: 1, NextCmd: 2, MinRMSD: 1.5, SegTarget: p.SegmentsPerGen,
	}
	raw, err := wire.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	c := NewMSMController()
	if err := c.RestoreState(raw); err != nil {
		t.Fatalf("pre-stream controller snapshot failed to restore: %v", err)
	}
	if c.stream != nil {
		t.Error("pre-stream snapshot restored with a live stream clusterer")
	}
	if c.st.Converged || c.st.ConvOK != 0 || c.st.LastPops != nil {
		t.Error("pre-stream snapshot restored with convergence state")
	}
	if c.st.Gen != 1 || c.st.SegDone != 2 || c.led.NextCmd != 2 || c.st.MinRMSD != 1.5 {
		t.Errorf("pre-stream fields corrupted: gen=%d segDone=%d nextCmd=%d minRMSD=%g",
			c.st.Gen, c.st.SegDone, c.led.NextCmd, c.st.MinRMSD)
	}
}
