package msm

import (
	"fmt"
	"math"
	"sort"
)

// Counts is a sparse transition-count matrix over n microstates.
type Counts struct {
	n    int
	rows []map[int]float64
}

// NewCounts returns an empty count matrix over n states.
func NewCounts(n int) *Counts {
	if n <= 0 {
		panic("msm: count matrix needs at least one state")
	}
	return &Counts{n: n, rows: make([]map[int]float64, n)}
}

// N returns the number of states.
func (c *Counts) N() int { return c.n }

// Add records weight w of transitions from state i to state j.
func (c *Counts) Add(i, j int, w float64) {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		panic(fmt.Sprintf("msm: transition (%d,%d) outside %d states", i, j, c.n))
	}
	if c.rows[i] == nil {
		c.rows[i] = make(map[int]float64)
	}
	c.rows[i][j] += w
}

// Get returns the count from i to j.
func (c *Counts) Get(i, j int) float64 {
	if c.rows[i] == nil {
		return 0
	}
	return c.rows[i][j]
}

// RowSum returns the total outgoing count of state i.
func (c *Counts) RowSum(i int) float64 {
	s := 0.0
	for _, w := range c.rows[i] {
		s += w
	}
	return s
}

// Total returns the total number of counted transitions.
func (c *Counts) Total() float64 {
	s := 0.0
	for i := range c.rows {
		s += c.RowSum(i)
	}
	return s
}

// CountTransitions accumulates sliding-window transition counts at the given
// lag (in frames) from discretised trajectories into a count matrix over
// nStates. Transitions never cross trajectory boundaries.
func CountTransitions(dtrajs [][]int, nStates, lag int) (*Counts, error) {
	if lag < 1 {
		return nil, fmt.Errorf("msm: lag must be >= 1 frame, got %d", lag)
	}
	c := NewCounts(nStates)
	for ti, dt := range dtrajs {
		for k := 0; k+lag < len(dt); k++ {
			i, j := dt[k], dt[k+lag]
			if i < 0 || i >= nStates || j < 0 || j >= nStates {
				return nil, fmt.Errorf("msm: trajectory %d has state outside [0,%d)", ti, nStates)
			}
			c.Add(i, j, 1)
		}
	}
	return c, nil
}

// Symmetrized returns (C + Cᵀ)/2, the simplest reversible count estimator
// used for equilibrium analysis when trajectories are short.
func (c *Counts) Symmetrized() *Counts {
	s := NewCounts(c.n)
	for i, row := range c.rows {
		for j, w := range row {
			s.Add(i, j, w/2)
			s.Add(j, i, w/2)
		}
	}
	return s
}

// entry is one non-zero element of a transition-matrix row.
type entry struct {
	col  int
	prob float64
}

// TransitionMatrix is a sparse row-stochastic Markov transition matrix
// T(τ). Lag carries the lag time in caller units (e.g. ns) purely for
// bookkeeping in timescale conversions.
type TransitionMatrix struct {
	n    int
	rows [][]entry
	Lag  float64
}

// TransitionMatrix estimates T from the counts by row normalisation with a
// uniform pseudocount prior added to the diagonal (keeping empty states
// well-defined as absorbing rather than undefined).
func (c *Counts) TransitionMatrix(prior float64) *TransitionMatrix {
	if prior < 0 {
		prior = 0
	}
	t := &TransitionMatrix{n: c.n, rows: make([][]entry, c.n)}
	for i := 0; i < c.n; i++ {
		total := c.RowSum(i) + prior
		if total == 0 || c.rows[i] == nil && prior == 0 {
			// Unvisited state: make it absorbing so propagation stays stochastic.
			t.rows[i] = []entry{{col: i, prob: 1}}
			continue
		}
		row := make([]entry, 0, len(c.rows[i])+1)
		diag := prior
		if w, ok := c.rows[i][i]; ok {
			diag += w
		}
		if diag > 0 {
			row = append(row, entry{col: i, prob: diag / total})
		}
		cols := make([]int, 0, len(c.rows[i]))
		for j := range c.rows[i] {
			if j != i {
				cols = append(cols, j)
			}
		}
		sort.Ints(cols)
		for _, j := range cols {
			row = append(row, entry{col: j, prob: c.rows[i][j] / total})
		}
		t.rows[i] = row
	}
	return t
}

// N returns the number of states.
func (t *TransitionMatrix) N() int { return t.n }

// Prob returns T[i][j].
func (t *TransitionMatrix) Prob(i, j int) float64 {
	for _, e := range t.rows[i] {
		if e.col == j {
			return e.prob
		}
	}
	return 0
}

// Propagate returns p·T, one Chapman–Kolmogorov step (eq. 1 of the paper:
// p(t+τ) = p(t) T(τ)). It panics if len(p) != N.
func (t *TransitionMatrix) Propagate(p []float64) []float64 {
	if len(p) != t.n {
		panic(fmt.Sprintf("msm: propagating %d-vector through %d-state matrix", len(p), t.n))
	}
	return t.propagateInto(make([]float64, t.n), p)
}

// propagateInto writes p·T into out, an N-vector, and returns it.
func (t *TransitionMatrix) propagateInto(out, p []float64) []float64 {
	clear(out)
	for i, pi := range p {
		if pi == 0 {
			continue
		}
		for _, e := range t.rows[i] {
			out[e.col] += pi * e.prob
		}
	}
	return out
}

// PropagateN applies n Chapman–Kolmogorov steps.
func (t *TransitionMatrix) PropagateN(p []float64, n int) []float64 {
	out := append([]float64(nil), p...)
	for k := 0; k < n; k++ {
		out = t.Propagate(out)
	}
	return out
}

// StationaryDistribution computes the left eigenvector π = πT by power
// iteration, normalised to sum 1. It converges for the ergodic matrices
// produced by LargestConnectedSet + Restrict; on reducible matrices it
// returns the distribution reached from uniform after maxIter steps.
func (t *TransitionMatrix) StationaryDistribution(tol float64, maxIter int) []float64 {
	p, q := make([]float64, t.n), make([]float64, t.n)
	for i := range p {
		p[i] = 1 / float64(t.n)
	}
	for k := 0; k < maxIter; k++ {
		t.propagateInto(q, p)
		// Normalise against drift.
		s := 0.0
		for _, v := range q {
			s += v
		}
		if s > 0 {
			for i := range q {
				q[i] /= s
			}
		}
		d := 0.0
		for i := range q {
			d += math.Abs(q[i] - p[i])
		}
		p, q = q, p
		if d < tol {
			break
		}
	}
	return p
}

// LargestConnectedSet returns the states of the largest strongly connected
// component of the transition graph (edges = non-zero off-diagonal
// probabilities), sorted ascending. MSM analysis is performed on this
// ergodic subset, as in the paper ("the largest connected subset of the
// Markovian transition matrix").
func (t *TransitionMatrix) LargestConnectedSet() []int {
	// Tarjan's algorithm, iterative to survive deep recursion on long chains.
	const unvisited = -1
	index := make([]int, t.n)
	low := make([]int, t.n)
	onStack := make([]bool, t.n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	var best []int
	counter := 0

	type frame struct {
		v, ei int
	}
	for root := 0; root < t.n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack := []frame{{v: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			advanced := false
			for f.ei < len(t.rows[v]) {
				e := t.rows[v][f.ei]
				f.ei++
				w := e.col
				if w == v || e.prob == 0 {
					continue
				}
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				// Pop an SCC.
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > len(best) {
					best = comp
				}
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	sort.Ints(best)
	return best
}

// Restrict returns the transition matrix renormalised over the given state
// subset, along with a mapping from new indices to original state ids.
// States outside the subset are dropped and rows renormalised.
func (t *TransitionMatrix) Restrict(states []int) (*TransitionMatrix, []int) {
	idx := make(map[int]int, len(states))
	keep := append([]int(nil), states...)
	sort.Ints(keep)
	for newI, oldI := range keep {
		idx[oldI] = newI
	}
	rt := &TransitionMatrix{n: len(keep), rows: make([][]entry, len(keep)), Lag: t.Lag}
	for newI, oldI := range keep {
		var row []entry
		total := 0.0
		for _, e := range t.rows[oldI] {
			if newJ, ok := idx[e.col]; ok {
				row = append(row, entry{col: newJ, prob: e.prob})
				total += e.prob
			}
		}
		if total == 0 {
			row = []entry{{col: newI, prob: 1}}
			total = 1
		}
		for k := range row {
			row[k].prob /= total
		}
		rt.rows[newI] = row
	}
	return rt, keep
}

// RowStochasticError returns the largest deviation of any row sum from 1,
// a structural invariant checked in tests.
func (t *TransitionMatrix) RowStochasticError() float64 {
	worst := 0.0
	for _, row := range t.rows {
		s := 0.0
		for _, e := range row {
			s += e.prob
		}
		if d := math.Abs(s - 1); d > worst {
			worst = d
		}
	}
	return worst
}
