package des

import "testing"

// TestStreamAnalysisDES is the streaming-analysis acceptance scenario: over
// a 20-round adaptive campaign, per-round incremental analysis cost stays
// flat while batch reclustering grows with the campaign, and by round 20
// the incremental path is clearly cheaper. Assertions lean on the
// deterministic work-unit model; wall-time checks use generous factors so
// loaded CI machines don't flake them.
//
// The batch arm's units are the distances k-centers really evaluated. Until
// the barrier fused the assignment into k-centers and pruned by the triangle
// inequality they were 2·frames·K by construction, and round 20 read 40×
// in units, 33–43× measured (21–24× under -race) and 20× over the campaign
// (13×); pruned, round 20 evaluates 17 distances a frame instead of 240
// and reads 2.8× in units, 10× measured (5.4–6.5×) and 5.5× over the
// campaign (3.2×). The three "≥ 5×" bounds were lowered to what still
// holds with room to spare (units 2, measured 3, campaign 2); every shape
// assertion — incremental flat, batch growing, ≥ 4× first to last — is as
// it was.
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
	// Batch cost grows strictly with the campaign.
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].BatchUnits <= res.Rounds[i-1].BatchUnits {
			t.Errorf("round %d: batch units %.0f did not grow past %.0f",
				res.Rounds[i].Round, res.Rounds[i].BatchUnits, res.Rounds[i-1].BatchUnits)
		}
	}

	// The acceptance bound: by round 20 the incremental path is ≥2× cheaper
	// in distance evaluations — although the batch path prunes most of its
	// own and the incremental one scans every center for every frame — and
	// ≥3× in the measured wall time of the real clustering code.
	if s := res.UnitSpeedup(20); s < 2 {
		t.Errorf("unit speedup at round 20 = %.1f×, want ≥ 2×", s)
	}
	if s := res.MeasuredSpeedup(20); s < 3 {
		t.Errorf("measured speedup at round 20 = %.1f×, want ≥ 3×", s)
	}
	if res.IncrementalTotalSeconds <= 0 ||
		res.BatchTotalSeconds/res.IncrementalTotalSeconds < 2 {
		t.Errorf("campaign totals: batch %.3fs vs incremental %.3fs, want ≥ 2× apart",
			res.BatchTotalSeconds, res.IncrementalTotalSeconds)
	}

	// Measured flatness, with slack for scheduler noise: the final
	// incremental round may not cost more than 5× the cheapest one, while
	// the final batch round must clearly outgrow its first.
	minInc := res.Rounds[0].IncrementalSeconds
	for _, sr := range res.Rounds {
		if sr.IncrementalSeconds < minInc {
			minInc = sr.IncrementalSeconds
		}
	}
	last := res.Rounds[len(res.Rounds)-1]
	if minInc > 0 && last.IncrementalSeconds/minInc > 5 {
		t.Errorf("incremental wall time drifted: round 20 %.4fs vs min %.4fs",
			last.IncrementalSeconds, minInc)
	}
	if last.BatchSeconds < 4*res.Rounds[0].BatchSeconds {
		t.Errorf("batch wall time did not grow: round 1 %.4fs, round 20 %.4fs",
			res.Rounds[0].BatchSeconds, last.BatchSeconds)
	}

	t.Logf("round 20: batch %.0f units (%.4fs) vs incremental %.0f units (%.4fs) — %.1f× / %.1f× cheaper",
		last.BatchUnits, last.BatchSeconds, last.IncrementalUnits, last.IncrementalSeconds,
		res.UnitSpeedup(20), res.MeasuredSpeedup(20))
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
