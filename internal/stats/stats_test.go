package stats

import (
	"math"
	"testing"

	"copernicus/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 2.5 {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if math.Abs(StdDev(xs)-math.Sqrt(2.5)) > 1e-14 {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
	if math.Abs(StdErr(xs)-math.Sqrt(2.5/5)) > 1e-14 {
		t.Errorf("StdErr = %v", StdErr(xs))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdErr(nil) != 0 {
		t.Error("empty slice statistics should be 0")
	}
	if Variance([]float64{7}) != 0 {
		t.Error("singleton variance should be 0")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 1000)
	var run Running
	for i := range xs {
		xs[i] = r.Norm()*3 + 7
		run.Add(xs[i])
	}
	if math.Abs(run.Mean()-Mean(xs)) > 1e-10 {
		t.Errorf("running mean %v != batch %v", run.Mean(), Mean(xs))
	}
	if math.Abs(run.Variance()-Variance(xs)) > 1e-9 {
		t.Errorf("running variance %v != batch %v", run.Variance(), Variance(xs))
	}
	if run.N() != 1000 {
		t.Errorf("N = %d", run.N())
	}
}

func TestBootstrap(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = r.Norm()
	}
	se := Bootstrap(xs, 500, 99, Mean)
	analytic := StdErr(xs)
	if se < analytic*0.7 || se > analytic*1.3 {
		t.Errorf("bootstrap SE of mean = %v, analytic = %v", se, analytic)
	}
	if Bootstrap(nil, 100, 1, Mean) != 0 {
		t.Error("bootstrap of empty slice should be 0")
	}
	// Deterministic under same seed.
	if Bootstrap(xs, 100, 5, Mean) != Bootstrap(xs, 100, 5, Mean) {
		t.Error("bootstrap not deterministic for fixed seed")
	}
}

func TestHalfLifeTime(t *testing.T) {
	// Saturating exponential 1-exp(-t): final ~1, half level 0.5 at ln 2.
	var ts, ys []float64
	for i := 0; i <= 100; i++ {
		tt := float64(i) * 0.1
		ts = append(ts, tt)
		ys = append(ys, 1-math.Exp(-tt))
	}
	half, ok := HalfLifeTime(ts, ys)
	if !ok {
		t.Fatal("half life not found")
	}
	target := (ys[len(ys)-1]) / 2
	wantT := -math.Log(1 - target)
	if math.Abs(half-wantT) > 0.02 {
		t.Errorf("t1/2 = %v, want ~%v", half, wantT)
	}
}

func TestHalfLifeTimeEdge(t *testing.T) {
	if _, ok := HalfLifeTime(nil, nil); ok {
		t.Error("empty series should not yield a half life")
	}
	if _, ok := HalfLifeTime([]float64{1}, []float64{1, 2}); ok {
		t.Error("mismatched lengths should not yield a half life")
	}
	// A flat zero series never folds.
	if _, ok := HalfLifeTime([]float64{0, 1, 2}, []float64{0, 0, 0}); ok {
		t.Error("flat zero series should not yield a half life")
	}
	// A series that starts above half of its final value crosses at t0.
	half, ok := HalfLifeTime([]float64{5, 6}, []float64{0.9, 1.0})
	if !ok || half != 5 {
		t.Errorf("pre-crossed series: got %v, %v", half, ok)
	}
}
