package des

import "testing"

// TestStreamAnalysisDES is the streaming-analysis acceptance scenario: over
// a 20-round adaptive campaign, per-round incremental analysis cost stays
// flat while batch reclustering grows with the campaign, and by round 20
// the incremental path is clearly cheaper. Every assertion is on the
// deterministic work-unit model, so the outcome does not depend on the
// machine's load; measured wall times are logged, not asserted.
//
// The batch arm's units are the distances k-centers really evaluated. Until
// the barrier fused the assignment into k-centers and pruned by the triangle
// inequality they were 2·frames·K by construction, and round 20 read 40×
// in units; pruned, round 20 evaluates 17 distances a frame instead of 240
// and reads 2.8× in units (10× measured, 5.4–6.5× under -race), with batch
// units 20× round 1's.
func TestStreamAnalysisDES(t *testing.T) {
	p := DefaultStreamAnalysisParams()
	res, err := SimulateStreamAnalysis(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != p.Rounds {
		t.Fatalf("got %d rounds, want %d", len(res.Rounds), p.Rounds)
	}

	// Flat incremental cost: once the center budget is full (first round —
	// it sees far more frames than K), every round touches the same number
	// of frames against the same number of centers.
	first := res.Rounds[0]
	for _, sr := range res.Rounds[1:] {
		if sr.IncrementalUnits != first.IncrementalUnits {
			t.Errorf("round %d: incremental units %.0f != round 1's %.0f (not flat)",
				sr.Round, sr.IncrementalUnits, first.IncrementalUnits)
		}
	}
	// Batch cost grows strictly with the campaign, and about in proportion
	// to its frames (20× from round 1 to round 20).
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].BatchUnits <= res.Rounds[i-1].BatchUnits {
			t.Errorf("round %d: batch units %.0f did not grow past %.0f",
				res.Rounds[i].Round, res.Rounds[i].BatchUnits, res.Rounds[i-1].BatchUnits)
		}
	}
	last := res.Rounds[len(res.Rounds)-1]
	if g := last.BatchUnits / first.BatchUnits; g < 15 {
		t.Errorf("batch units grew %.1f× from round 1 to round 20, want ≥ 15× (read 20.0×)", g)
	}

	// The acceptance bound: by round 20 the incremental path is cheaper in
	// distance evaluations by at least 2.5× (read 2.81×), although the
	// batch path prunes most of its own and the incremental one scans every
	// center for every frame.
	if s := res.UnitSpeedup(20); s < 2.5 {
		t.Errorf("unit speedup at round 20 = %.2f×, want ≥ 2.5× (read 2.81×)", s)
	}

	t.Logf("round 20: batch %.0f units (%.4fs) vs incremental %.0f units (%.4fs) — %.1f× / %.1f× cheaper",
		last.BatchUnits, last.BatchSeconds, last.IncrementalUnits, last.IncrementalSeconds,
		res.UnitSpeedup(20), res.MeasuredSpeedup(20))
	t.Logf("batch round 1 → 20: %.1f× in units, %.1f× measured", last.BatchUnits/first.BatchUnits,
		last.BatchSeconds/first.BatchSeconds)
	t.Logf("campaign: batch %.3fs vs incremental %.3fs over %d rounds",
		res.BatchTotalSeconds, res.IncrementalTotalSeconds, p.Rounds)
}

// TestStreamAnalysisDeterministic pins that the scenario itself is
// reproducible: same params → identical unit accounting (wall times vary).
func TestStreamAnalysisDeterministic(t *testing.T) {
	p := DefaultStreamAnalysisParams()
	p.Rounds = 4
	a, err := SimulateStreamAnalysis(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateStreamAnalysis(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rounds {
		ra, rb := a.Rounds[i], b.Rounds[i]
		if ra.BatchUnits != rb.BatchUnits || ra.IncrementalUnits != rb.IncrementalUnits ||
			ra.TotalFrames != rb.TotalFrames {
			t.Errorf("round %d units diverged across runs: %+v vs %+v", ra.Round, ra, rb)
		}
	}
}

func TestStreamAnalysisParamValidation(t *testing.T) {
	p := DefaultStreamAnalysisParams()
	p.Rounds = 0
	if _, err := SimulateStreamAnalysis(p); err == nil {
		t.Error("zero rounds accepted")
	}
	p = DefaultStreamAnalysisParams()
	p.Clusters = 0
	if _, err := SimulateStreamAnalysis(p); err == nil {
		t.Error("zero clusters accepted")
	}
}
