package repex

import (
	"encoding/binary"
	"math"
	"testing"

	"copernicus/internal/rng"
)

// harmonicLadder is an analytic replica-exchange system: one coordinate per
// rung in the potential U = x²/2 (kJ/mol), moved by local Metropolis steps at
// the rung's temperature between segment boundaries and swapped between rungs
// only through Exchange. A rung's State is its coordinate.
type harmonicLadder struct {
	temps   []float64
	rungs   []Rung
	stats   *Stats
	r       *rng.Source
	samples [][]float64 // per rung: U at each of its segment boundaries
}

// localMoves per segment, and the Metropolis step in units of the rung's
// thermal width sqrt(kB·T).
const (
	localMoves = 20
	stepWidth  = 2.0
)

func newHarmonicLadder(t *testing.T, n int, seed uint64) *harmonicLadder {
	t.Helper()
	temps, err := Ladder(300, 1200, n)
	if err != nil {
		t.Fatal(err)
	}
	h := &harmonicLadder{temps: temps, rungs: make([]Rung, n), stats: NewStats(n),
		r: rng.New(seed), samples: make([][]float64, n)}
	for i := range h.rungs {
		// Start from a canonical draw, so there is no burn-in to discard.
		h.set(i, h.r.Norm()*math.Sqrt(KB*temps[i]))
	}
	return h
}

func (h *harmonicLadder) x(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(h.rungs[i].State))
}

func (h *harmonicLadder) set(i int, x float64) {
	h.rungs[i].State = binary.LittleEndian.AppendUint64(nil, math.Float64bits(x))
	h.rungs[i].Potential = x * x / 2
}

// segment runs rung i's local moves up to its next boundary and records the
// boundary's potential.
func (h *harmonicLadder) segment(i int) {
	kT := KB * h.temps[i]
	x := h.x(i)
	for m := 0; m < localMoves; m++ {
		y := x + stepWidth*math.Sqrt(kT)*(2*h.r.Float64()-1)
		if h.r.Float64() < math.Exp(-(y*y-x*x)/(2*kT)) {
			x = y
		}
	}
	h.set(i, x)
	h.rungs[i].Segs++
	h.samples[i] = append(h.samples[i], h.rungs[i].Potential)
}

// runSync is the barriered pattern: every rung runs a segment, then the
// even/odd sweep exchanges.
func (h *harmonicLadder) runSync(epochs int) {
	for e := 0; e < epochs; e++ {
		for i := range h.rungs {
			h.segment(i)
		}
		for _, i := range SweepPairs(len(h.rungs), e%2 == 1) {
			Exchange(h.temps, h.rungs, h.stats, i, h.r.Float64())
		}
	}
}

// runAsync is the barrier-free pattern: rungs reach their boundaries in a
// seeded random order, and Arrive decides who exchanges and who runs on.
func (h *harmonicLadder) runAsync(t *testing.T, segments int) {
	running := make([]int, len(h.rungs))
	for i := range running {
		running[i] = i
	}
	for len(running) > 0 {
		k := h.r.Intn(len(running))
		i := running[k]
		running[k] = running[len(running)-1]
		running = running[:len(running)-1]
		h.segment(i)
		pair, run := Arrive(h.rungs, i, segments)
		if pair >= 0 {
			Exchange(h.temps, h.rungs, h.stats, pair, h.r.Float64())
		}
		running = append(running, run...)
	}
	for i, rung := range h.rungs {
		if !rung.Retired || rung.Segs != segments {
			t.Fatalf("rung %d ended with %d segments (retired %v), want %d", i, rung.Segs, rung.Retired, segments)
		}
	}
}

// batchMean returns the mean of xs and its standard error from the scatter
// of the means of consecutive batches, which absorbs the chain's
// autocorrelation.
func batchMean(xs []float64, batches int) (mean, stderr float64) {
	size := len(xs) / batches
	means := make([]float64, batches)
	for b := range means {
		for _, x := range xs[b*size : (b+1)*size] {
			means[b] += x
		}
		means[b] /= float64(size)
		mean += means[b]
	}
	mean /= float64(batches)
	var ss float64
	for _, m := range means {
		ss += (m - mean) * (m - mean)
	}
	return mean, math.Sqrt(ss / float64(batches-1) / float64(batches))
}

// harmonicSwapRate is the analytic mean exchange acceptance ⟨min(1, e^Δ)⟩
// between two one-dimensional harmonic oscillators sampled canonically at
// tLo < tHi: integrating the Metropolis factor over the two energy
// distributions (each kB·T·χ²₁/2) gives (4/π)·arctan(√(tLo/tHi)).
func harmonicSwapRate(tLo, tHi float64) float64 {
	return 4 / math.Pi * math.Atan(math.Sqrt(tLo/tHi))
}

// TestExchangeOracleHarmonicLadder is the physics oracle for both exchange
// patterns on a four-rung ladder: with exchanges going through Exchange and
// scheduled by SweepPairs (sync) or Arrive (async), every rung must still
// sample its own canonical ensemble (⟨U⟩ = kB·T/2 within 3σ) and every
// neighbour pair must accept at the analytic rate (within 0.02). Detailed
// balance in the product ensemble is what makes both hold; a wrong sign in
// SwapProb breaks both.
func TestExchangeOracleHarmonicLadder(t *testing.T) {
	const rungs = 4
	for _, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			h := newHarmonicLadder(t, rungs, 11)
			if mode == "sync" {
				h.runSync(20000)
			} else {
				h.runAsync(t, 40000)
			}
			for i, temp := range h.temps {
				want := KB * temp / 2
				mean, se := batchMean(h.samples[i], 50)
				if math.Abs(mean-want) > 3*se {
					t.Errorf("rung %d (%.0f K): <U> = %.4f ± %.4f, want kB·T/2 = %.4f", i, temp, mean, se, want)
				}
			}
			for i := 0; i+1 < rungs; i++ {
				if h.stats.Attempts[i] < 2000 {
					t.Fatalf("pair %d-%d: only %d attempts", i, i+1, h.stats.Attempts[i])
				}
				want := harmonicSwapRate(h.temps[i], h.temps[i+1])
				if got := h.stats.Rate(i); math.Abs(got-want) > 0.02 {
					t.Errorf("pair %d-%d: acceptance %.4f over %d attempts, analytic %.4f",
						i, i+1, got, h.stats.Attempts[i], want)
				}
			}
		})
	}
}
