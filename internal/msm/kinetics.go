package msm

import (
	"fmt"
	"math"
)

// MFPT computes the mean first passage time from every state into the
// target set by solving the linear system
//
//	m_i = τ + Σ_j T_ij m_j   for i ∉ target,  m_i = 0 for i ∈ target
//
// with Gauss–Seidel iteration (the matrix is diagonally dominant after the
// absorbing modification, so the sweep converges). Times are returned in
// the unit of t.Lag. States that cannot reach the target get +Inf — this is
// the "folding rate" analysis the paper derives from the converged model.
func (t *TransitionMatrix) MFPT(target []int) ([]float64, error) {
	if len(target) == 0 {
		return nil, fmt.Errorf("msm: MFPT needs a non-empty target set")
	}
	inTarget := make([]bool, t.n)
	for _, s := range target {
		if s < 0 || s >= t.n {
			return nil, fmt.Errorf("msm: MFPT target state %d outside [0,%d)", s, t.n)
		}
		inTarget[s] = true
	}
	reach := t.canReach(inTarget)

	m := make([]float64, t.n)
	for i := range m {
		if !inTarget[i] && !reach[i] {
			m[i] = math.Inf(1)
		}
	}
	tau := t.Lag
	if tau <= 0 {
		tau = 1
	}
	for iter := 0; iter < 100000; iter++ {
		maxDelta := 0.0
		for i := 0; i < t.n; i++ {
			if inTarget[i] || !reach[i] {
				continue
			}
			sum := tau
			var selfP float64
			for _, e := range t.rows[i] {
				switch {
				case e.col == i:
					selfP = e.prob
				case inTarget[e.col]:
					// contributes 0
				case !reach[e.col]:
					// unreachable neighbour: conditional on reaching the
					// target this path has probability zero mass; treat its
					// contribution through renormalisation below.
				default:
					sum += e.prob * m[e.col]
				}
			}
			if selfP >= 1 {
				continue // absorbing non-target state, stays +Inf via reach
			}
			next := sum / (1 - selfP)
			if d := math.Abs(next - m[i]); d > maxDelta && !math.IsInf(next, 0) {
				maxDelta = d
			}
			m[i] = next
		}
		if maxDelta < 1e-10*tau {
			break
		}
	}
	return m, nil
}

// canReach flags the states with a path into the marked set (reverse BFS
// over the transition graph).
func (t *TransitionMatrix) canReach(mark []bool) []bool {
	// Build reverse adjacency once.
	radj := make([][]int, t.n)
	for i := 0; i < t.n; i++ {
		for _, e := range t.rows[i] {
			if e.prob > 0 && e.col != i {
				radj[e.col] = append(radj[e.col], i)
			}
		}
	}
	reach := make([]bool, t.n)
	var queue []int
	for i, m := range mark {
		if m {
			reach[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range radj[v] {
			if !reach[u] {
				reach[u] = true
				queue = append(queue, u)
			}
		}
	}
	return reach
}

// Committor computes the forward committor q⁺: the probability of reaching
// the product set B before the reactant set A, solving
//
//	q_i = Σ_j T_ij q_j  for i ∉ A∪B,  q_A = 0, q_B = 1
//
// by Gauss–Seidel. This is the "mechanism" observable of MSM analysis: the
// transition state ensemble sits at q ≈ ½.
func (t *TransitionMatrix) Committor(reactant, product []int) ([]float64, error) {
	if len(reactant) == 0 || len(product) == 0 {
		return nil, fmt.Errorf("msm: committor needs non-empty reactant and product sets")
	}
	inA := make([]bool, t.n)
	inB := make([]bool, t.n)
	for _, s := range reactant {
		if s < 0 || s >= t.n {
			return nil, fmt.Errorf("msm: committor reactant state %d outside [0,%d)", s, t.n)
		}
		inA[s] = true
	}
	for _, s := range product {
		if s < 0 || s >= t.n {
			return nil, fmt.Errorf("msm: committor product state %d outside [0,%d)", s, t.n)
		}
		if inA[s] {
			return nil, fmt.Errorf("msm: state %d is in both reactant and product sets", s)
		}
		inB[s] = true
	}
	q := make([]float64, t.n)
	for i := range q {
		if inB[i] {
			q[i] = 1
		}
	}
	for iter := 0; iter < 100000; iter++ {
		maxDelta := 0.0
		for i := 0; i < t.n; i++ {
			if inA[i] || inB[i] {
				continue
			}
			sum := 0.0
			var selfP float64
			for _, e := range t.rows[i] {
				if e.col == i {
					selfP = e.prob
					continue
				}
				sum += e.prob * q[e.col]
			}
			if selfP >= 1 {
				continue
			}
			next := sum / (1 - selfP)
			if d := math.Abs(next - q[i]); d > maxDelta {
				maxDelta = d
			}
			q[i] = next
		}
		if maxDelta < 1e-12 {
			break
		}
	}
	return q, nil
}

// ChapmanKolmogorovError quantifies Markovianity directly: it compares
// propagation of the lag-τ model k steps forward, T(τ)^k, against the model
// estimated at lag k·τ from the same trajectories, returning the mean
// absolute difference of the folded-set population over the given start
// distribution. Small values indicate the lag is long enough — the test
// behind the paper's "Markovian for lag times of 20 ns or greater".
func ChapmanKolmogorovError(dtrajs [][]int, nStates, lagFrames, k int, p0 []float64, set []int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("msm: CK test needs k >= 1")
	}
	short, err := CountTransitions(dtrajs, nStates, lagFrames)
	if err != nil {
		return 0, err
	}
	long, err := CountTransitions(dtrajs, nStates, lagFrames*k)
	if err != nil {
		return 0, err
	}
	tShort := short.TransitionMatrix(0)
	tLong := long.TransitionMatrix(0)

	inSet := make([]bool, nStates)
	for _, s := range set {
		if s >= 0 && s < nStates {
			inSet[s] = true
		}
	}
	mass := func(p []float64) float64 {
		s := 0.0
		for i, v := range p {
			if inSet[i] {
				s += v
			}
		}
		return s
	}
	predicted := mass(tShort.PropagateN(p0, k))
	measured := mass(tLong.Propagate(p0))
	return math.Abs(predicted - measured), nil
}

// LumpByCommittor coarse-grains the microstates into macrostates along the
// reaction coordinate: reactant set → macrostate 0, product set → nBins+1,
// and intermediate states binned by their forward committor value. This is
// the simple mechanism-level lumping used to talk about "the folded state",
// "the transition region" and "the unfolded state" of a model (a lightweight
// stand-in for full PCCA lumping).
func (t *TransitionMatrix) LumpByCommittor(reactant, product []int, nBins int) ([]int, error) {
	if nBins < 1 {
		return nil, fmt.Errorf("msm: committor lumping needs at least one intermediate bin")
	}
	q, err := t.Committor(reactant, product)
	if err != nil {
		return nil, err
	}
	inA := make([]bool, t.n)
	inB := make([]bool, t.n)
	for _, s := range reactant {
		inA[s] = true
	}
	for _, s := range product {
		inB[s] = true
	}
	macro := make([]int, t.n)
	for i := 0; i < t.n; i++ {
		switch {
		case inA[i]:
			macro[i] = 0
		case inB[i]:
			macro[i] = nBins + 1
		default:
			b := int(q[i]*float64(nBins)) + 1
			if b > nBins {
				b = nBins
			}
			macro[i] = b
		}
	}
	return macro, nil
}
