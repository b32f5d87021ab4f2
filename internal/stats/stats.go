// Package stats provides the statistical estimators the analysis pipeline
// runs: the mean and bootstrap standard error behind BAR's error bars, the
// running (Welford) mean ± std of Fig 5's ensemble RMSD, and the t½
// half-life of Fig 4's folded population. Variance and StdErr are the batch
// references Running and Bootstrap are tested against. Everything operates
// on plain []float64; nothing here is concurrent.
package stats

import (
	"math"

	"copernicus/internal/rng"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs. Slices with
// fewer than two elements have zero variance by convention.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean assuming independent
// samples: s/sqrt(n).
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Running accumulates mean and variance incrementally (Welford's algorithm).
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples seen.
func (r *Running) N() int { return r.n }

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased running variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the running standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Bootstrap resamples xs nResamples times with replacement, applies f to
// each resample, and returns the standard deviation of the f values — the
// bootstrap standard error of the statistic. A deterministic seed makes the
// estimate reproducible.
func Bootstrap(xs []float64, nResamples int, seed uint64, f func([]float64) float64) float64 {
	if len(xs) == 0 || nResamples <= 1 {
		return 0
	}
	r := rng.New(seed)
	buf := make([]float64, len(xs))
	var acc Running
	for k := 0; k < nResamples; k++ {
		for i := range buf {
			buf[i] = xs[r.Intn(len(xs))]
		}
		acc.Add(f(buf))
	}
	return acc.StdDev()
}

// HalfLifeTime returns the interpolated time at which the series ys (sampled
// at the times ts, monotonically increasing from a starting value toward a
// plateau) first crosses half of its final value. It returns the crossing
// time and true, or 0 and false if the series never reaches the half level.
// This is the t½ estimator used for the folding kinetics of Fig 4.
func HalfLifeTime(ts, ys []float64) (float64, bool) {
	if len(ts) != len(ys) || len(ts) == 0 {
		return 0, false
	}
	target := ys[len(ys)-1] / 2
	if target <= ys[0] {
		return ts[0], ys[len(ys)-1] > 0
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] >= target {
			// Linear interpolation within [i-1, i].
			y0, y1 := ys[i-1], ys[i]
			t0, t1 := ts[i-1], ts[i]
			if y1 == y0 {
				return t1, true
			}
			return t0 + (t1-t0)*(target-y0)/(y1-y0), true
		}
	}
	return 0, false
}
