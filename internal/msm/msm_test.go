package msm

import (
	"math"
	"testing"
	"testing/quick"

	"copernicus/internal/rng"
)

// --- clustering ---

func gaussianBlobs(n int, centers [][]float64, spread float64, seed uint64) [][]float64 {
	r := rng.New(seed)
	pts := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		p := make([]float64, len(c))
		for d := range p {
			p[d] = c[d] + spread*r.Norm()
		}
		pts = append(pts, p)
	}
	return pts
}

func TestKCentersBasics(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	pts := gaussianBlobs(300, centers, 0.3, 1)
	c, err := KCenters(pts, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 3 {
		t.Fatalf("K = %d", c.K())
	}
	// Each true blob center should be near one cluster center.
	for _, tc := range centers {
		best := math.Inf(1)
		for _, cc := range c.Centers {
			if d := sqDist(tc, cc); d < best {
				best = d
			}
		}
		if math.Sqrt(best) > 1.5 {
			t.Errorf("no cluster center near blob %v (nearest %.2f away)", tc, math.Sqrt(best))
		}
	}
	// Points from the same blob should co-cluster.
	a := c.Assign(pts[0])
	b := c.Assign(pts[3]) // same blob (i%3)
	if a != b {
		t.Error("same-blob points assigned to different clusters")
	}
	// MaxRadius should be small compared with blob separation.
	if r := c.MaxRadius(pts); r > 3 {
		t.Errorf("MaxRadius = %v", r)
	}
}

func TestKCentersErrors(t *testing.T) {
	if _, err := KCenters(nil, 3, 1); err == nil {
		t.Error("empty point set should fail")
	}
	if _, err := KCenters([][]float64{{1}}, 0, 1); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := KCenters([][]float64{{1, 2}, {1}}, 2, 1); err == nil {
		t.Error("ragged dimensions should fail")
	}
}

func TestKCentersKLargerThanN(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	c, err := KCenters(pts, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 3 {
		t.Errorf("K = %d, want 3 (one per distinct point)", c.K())
	}
}

func TestKCentersDuplicatePoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	c, err := KCenters(pts, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 2 {
		t.Errorf("K = %d, want 2 for two distinct locations", c.K())
	}
}

func TestKCentersDeterministic(t *testing.T) {
	pts := gaussianBlobs(200, [][]float64{{0, 0}, {5, 5}}, 0.5, 3)
	a, _ := KCenters(pts, 10, 42)
	b, _ := KCenters(pts, 10, 42)
	for i := range a.Centers {
		for d := range a.Centers[i] {
			if a.Centers[i][d] != b.Centers[i][d] {
				t.Fatal("KCenters not deterministic")
			}
		}
	}
	if a.CenterSource[0] != b.CenterSource[0] {
		t.Fatal("CenterSource not deterministic")
	}
}

func TestCenterSourceValid(t *testing.T) {
	pts := gaussianBlobs(100, [][]float64{{0, 0}, {4, 4}}, 0.3, 5)
	c, _ := KCenters(pts, 8, 9)
	for i, src := range c.CenterSource {
		if src < 0 || src >= len(pts) {
			t.Fatalf("CenterSource[%d] = %d out of range", i, src)
		}
		for d := range pts[src] {
			if pts[src][d] != c.Centers[i][d] {
				t.Fatalf("center %d does not match its source point", i)
			}
		}
	}
}

func TestPropertyAssignReturnsNearest(t *testing.T) {
	pts := gaussianBlobs(100, [][]float64{{0, 0}, {8, 0}, {0, 8}}, 1, 11)
	c, _ := KCenters(pts, 5, 13)
	f := func(x, y float64) bool {
		cl := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 20)
		}
		p := []float64{cl(x), cl(y)}
		got := c.Assign(p)
		for i := range c.Centers {
			if sqDist(p, c.Centers[i]) < sqDist(p, c.Centers[got])-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- counts and transition matrices ---

func TestCountTransitions(t *testing.T) {
	dtrajs := [][]int{{0, 1, 0, 1, 2}, {2, 2}}
	c, err := CountTransitions(dtrajs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Get(0, 1) != 2 || c.Get(1, 0) != 1 || c.Get(1, 2) != 1 || c.Get(2, 2) != 1 {
		t.Errorf("unexpected counts: 01=%v 10=%v 12=%v 22=%v",
			c.Get(0, 1), c.Get(1, 0), c.Get(1, 2), c.Get(2, 2))
	}
	if c.Total() != 5 {
		t.Errorf("Total = %v, want 5", c.Total())
	}
}

func TestCountTransitionsLag(t *testing.T) {
	dtrajs := [][]int{{0, 1, 2, 0, 1, 2}}
	c, err := CountTransitions(dtrajs, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// With lag 3: (0→0), (1→1), (2→2).
	for i := 0; i < 3; i++ {
		if c.Get(i, i) != 1 {
			t.Errorf("lag-3 count (%d,%d) = %v", i, i, c.Get(i, i))
		}
	}
	// No cross-boundary transitions with multiple trajectories.
	c2, _ := CountTransitions([][]int{{0}, {1}}, 2, 1)
	if c2.Total() != 0 {
		t.Error("transitions must not cross trajectory boundaries")
	}
}

func TestCountTransitionsErrors(t *testing.T) {
	if _, err := CountTransitions([][]int{{0, 1}}, 2, 0); err == nil {
		t.Error("lag 0 should fail")
	}
	if _, err := CountTransitions([][]int{{0, 5}}, 2, 1); err == nil {
		t.Error("out-of-range state should fail")
	}
}

func TestCountsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Add should panic")
		}
	}()
	NewCounts(2).Add(0, 5, 1)
}

func TestSymmetrized(t *testing.T) {
	c := NewCounts(2)
	c.Add(0, 1, 4)
	s := c.Symmetrized()
	if s.Get(0, 1) != 2 || s.Get(1, 0) != 2 {
		t.Errorf("symmetrized: 01=%v 10=%v", s.Get(0, 1), s.Get(1, 0))
	}
	if s.Total() != c.Total() {
		t.Error("symmetrization must preserve total counts")
	}
}

func TestTransitionMatrixRowStochastic(t *testing.T) {
	c := NewCounts(3)
	c.Add(0, 1, 3)
	c.Add(0, 2, 1)
	c.Add(1, 0, 2)
	// State 2 unvisited → absorbing.
	tm := c.TransitionMatrix(0)
	if e := tm.RowStochasticError(); e > 1e-12 {
		t.Errorf("row stochastic error = %v", e)
	}
	if p := tm.Prob(0, 1); math.Abs(p-0.75) > 1e-12 {
		t.Errorf("P(0→1) = %v, want 0.75", p)
	}
	if p := tm.Prob(2, 2); p != 1 {
		t.Errorf("unvisited state should be absorbing, P(2→2) = %v", p)
	}
}

func TestTransitionMatrixPrior(t *testing.T) {
	c := NewCounts(2)
	c.Add(0, 1, 1)
	tm := c.TransitionMatrix(1)
	// Row 0: total = 1 count + 1 prior = 2; diagonal gets the prior.
	if p := tm.Prob(0, 0); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(0→0) with prior = %v, want 0.5", p)
	}
	if e := tm.RowStochasticError(); e > 1e-12 {
		t.Errorf("row stochastic error with prior = %v", e)
	}
}

func TestPropagate(t *testing.T) {
	c := NewCounts(2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	tm := c.TransitionMatrix(0)
	p := tm.Propagate([]float64{1, 0})
	if p[0] != 0 || p[1] != 1 {
		t.Errorf("Propagate = %v, want [0 1]", p)
	}
	p = tm.PropagateN([]float64{1, 0}, 2)
	if p[0] != 1 || p[1] != 0 {
		t.Errorf("PropagateN(2) = %v, want [1 0]", p)
	}
}

func TestPropagatePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size mismatch should panic")
		}
	}()
	NewCounts(2).TransitionMatrix(0).Propagate([]float64{1})
}

func TestPropertyPropagatePreservesProbability(t *testing.T) {
	r := rng.New(17)
	// Random ergodic chain over 5 states.
	c := NewCounts(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			c.Add(i, j, r.Float64()+0.01)
		}
	}
	tm := c.TransitionMatrix(0)
	f := func(raw [5]float64) bool {
		p := make([]float64, 5)
		tot := 0.0
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			p[i] = math.Abs(math.Mod(v, 10))
			tot += p[i]
		}
		if tot == 0 {
			return true
		}
		for i := range p {
			p[i] /= tot
		}
		q := tm.Propagate(p)
		s := 0.0
		for _, v := range q {
			s += v
		}
		return math.Abs(s-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStationaryDistributionTwoState(t *testing.T) {
	// P(0→1)=0.1, P(1→0)=0.3 → π = (0.75, 0.25).
	c := NewCounts(2)
	c.Add(0, 0, 9)
	c.Add(0, 1, 1)
	c.Add(1, 0, 3)
	c.Add(1, 1, 7)
	tm := c.TransitionMatrix(0)
	pi := tm.StationaryDistribution(1e-14, 100000)
	if math.Abs(pi[0]-0.75) > 1e-6 || math.Abs(pi[1]-0.25) > 1e-6 {
		t.Errorf("π = %v, want [0.75 0.25]", pi)
	}
	// Invariance: πT = π.
	q := tm.Propagate(pi)
	for i := range q {
		if math.Abs(q[i]-pi[i]) > 1e-9 {
			t.Errorf("π not invariant at %d: %v vs %v", i, q[i], pi[i])
		}
	}
}

// stationaryByPropagate is StationaryDistribution as one Propagate per
// step writes it: the reference the two-buffer iteration must match bitwise.
func stationaryByPropagate(t *TransitionMatrix, tol float64, maxIter int) []float64 {
	p := make([]float64, t.N())
	for i := range p {
		p[i] = 1 / float64(t.N())
	}
	for k := 0; k < maxIter; k++ {
		q := t.Propagate(p)
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
		p = q
		if d < tol {
			break
		}
	}
	return p
}

// randomSparseMatrix draws a transition matrix over n states with about
// fanout non-zero counts per row.
func randomSparseMatrix(r *rng.Source, n, fanout int) *TransitionMatrix {
	c := NewCounts(n)
	for i := 0; i < n; i++ {
		for k := 0; k < fanout; k++ {
			c.Add(i, r.Intn(n), 1+float64(r.Intn(20)))
		}
	}
	return c.TransitionMatrix(0.01)
}

func TestStationaryDistributionMatchesPerStepPropagate(t *testing.T) {
	r := rng.New(20261017)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(60)
		tm := randomSparseMatrix(r, n, 1+r.Intn(4))
		tol := []float64{0, 1e-12, 1e-6}[trial%3]
		maxIter := 1 + r.Intn(400)
		got, want := tm.StationaryDistribution(tol, maxIter), stationaryByPropagate(tm, tol, maxIter)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d, tol=%g, maxIter=%d): π[%d] = %v, per-step Propagate gives %v",
					trial, n, tol, maxIter, i, got[i], want[i])
			}
		}
	}
}

func TestStationaryDistributionAllocsDoNotGrowWithIterations(t *testing.T) {
	tm := randomSparseMatrix(rng.New(7), 50, 3)
	for _, iters := range []int{1, 10, 1000} {
		// tol 0 never converges early: every run takes all iters steps.
		if a := testing.AllocsPerRun(20, func() { tm.StationaryDistribution(0, iters) }); a > 2 {
			t.Errorf("%d iterations: %.0f allocations, want at most 2", iters, a)
		}
	}
}

func TestEquilibriumTopState(t *testing.T) {
	c := NewCounts(2)
	c.Add(0, 0, 9)
	c.Add(0, 1, 1)
	c.Add(1, 0, 3)
	c.Add(1, 1, 7)
	tm := c.TransitionMatrix(0)
	s, p := tm.EquilibriumTopState()
	if s != 0 {
		t.Errorf("top state = %d, want 0", s)
	}
	if math.Abs(p-0.75) > 1e-6 {
		t.Errorf("top π = %v, want 0.75", p)
	}
}

func TestLargestConnectedSet(t *testing.T) {
	// States 0↔1↔2 strongly connected; 3 only reachable (no return); 4 isolated.
	c := NewCounts(5)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(1, 2, 1)
	c.Add(2, 0, 1)
	c.Add(0, 3, 1)
	tm := c.TransitionMatrix(0)
	lcs := tm.LargestConnectedSet()
	want := []int{0, 1, 2}
	if len(lcs) != len(want) {
		t.Fatalf("LCS = %v, want %v", lcs, want)
	}
	for i := range want {
		if lcs[i] != want[i] {
			t.Fatalf("LCS = %v, want %v", lcs, want)
		}
	}
}

func TestLargestConnectedSetChain(t *testing.T) {
	// A long bidirectional chain is one big SCC; exercises the iterative
	// Tarjan on deep graphs.
	n := 20000
	c := NewCounts(n)
	for i := 0; i+1 < n; i++ {
		c.Add(i, i+1, 1)
		c.Add(i+1, i, 1)
	}
	tm := c.TransitionMatrix(0)
	if lcs := tm.LargestConnectedSet(); len(lcs) != n {
		t.Errorf("chain LCS size = %d, want %d", len(lcs), n)
	}
}

func TestRestrict(t *testing.T) {
	c := NewCounts(4)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(0, 3, 2) // leak to a state we will drop
	tm := c.TransitionMatrix(0)
	rt, mapping := tm.Restrict([]int{0, 1})
	if rt.N() != 2 {
		t.Fatalf("restricted N = %d", rt.N())
	}
	if mapping[0] != 0 || mapping[1] != 1 {
		t.Errorf("mapping = %v", mapping)
	}
	if e := rt.RowStochasticError(); e > 1e-12 {
		t.Errorf("restricted matrix not stochastic: %v", e)
	}
	// Row 0 originally: P(0→1)=1/3, P(0→3)=2/3. After dropping 3 and
	// renormalising, P(0→1)=1.
	if p := rt.Prob(0, 1); math.Abs(p-1) > 1e-12 {
		t.Errorf("restricted P(0→1) = %v, want 1", p)
	}
}

func TestRestrictIsolatedRow(t *testing.T) {
	c := NewCounts(3)
	c.Add(0, 2, 1) // state 0 only leads out of the subset
	c.Add(1, 1, 1)
	tm := c.TransitionMatrix(0)
	rt, _ := tm.Restrict([]int{0, 1})
	// State 0 loses all mass → must become absorbing, not a zero row.
	if p := rt.Prob(0, 0); p != 1 {
		t.Errorf("dangling restricted row should be absorbing, P=%v", p)
	}
}

// --- timescales ---

func TestSlowestTimescaleTwoState(t *testing.T) {
	// Two-state chain with P01=a, P10=b has λ2 = 1−a−b.
	a, b := 0.1, 0.3
	c := NewCounts(2)
	c.Add(0, 0, (1-a)*1000)
	c.Add(0, 1, a*1000)
	c.Add(1, 0, b*1000)
	c.Add(1, 1, (1-b)*1000)
	tm := c.TransitionMatrix(0)
	tm.Lag = 2.5 // ns
	want := -2.5 / math.Log(1-a-b)
	got := tm.SlowestTimescale()
	if math.Abs(got-want) > 1e-3*want {
		t.Errorf("t2 = %v, want %v", got, want)
	}
}

func TestImpliedTimescalesFlattenForMarkovChain(t *testing.T) {
	// Data generated BY a Markov chain must give lag-independent implied
	// timescales (within sampling noise) — the Markovianity test.
	r := rng.New(23)
	// Metastable 3-state chain.
	p := [][]float64{
		{0.98, 0.02, 0.0},
		{0.02, 0.96, 0.02},
		{0.0, 0.02, 0.98},
	}
	var dtrajs [][]int
	for tr := 0; tr < 10; tr++ {
		state := tr % 3
		dt := make([]int, 20000)
		for k := range dt {
			dt[k] = state
			state = r.Choice(p[state])
		}
		dtrajs = append(dtrajs, dt)
	}
	lags := []int{1, 2, 5, 10}
	ts, err := ImpliedTimescales(dtrajs, 3, lags, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ts {
		if math.IsInf(v, 0) || v <= 0 {
			t.Fatalf("timescale at lag %d = %v", lags[i], v)
		}
	}
	// Flatness: all within 25% of the lag-1 value.
	for i := 1; i < len(ts); i++ {
		if math.Abs(ts[i]-ts[0]) > 0.25*ts[0] {
			t.Errorf("implied timescale at lag %d = %v, lag 1 = %v; not flat", lags[i], ts[i], ts[0])
		}
	}
}

func TestImpliedTimescalesErrors(t *testing.T) {
	if _, err := ImpliedTimescales([][]int{{0, 1}}, 2, []int{1}, 0); err == nil {
		t.Error("zero frame time should fail")
	}
	if _, err := ImpliedTimescales([][]int{{0, 9}}, 2, []int{1}, 1); err == nil {
		t.Error("bad state should fail")
	}
}

func TestPopulationCurve(t *testing.T) {
	// Absorbing fold: P(U→F)=0.2, F absorbing.
	c := NewCounts(2)
	c.Add(0, 0, 8)
	c.Add(0, 1, 2)
	c.Add(1, 1, 1)
	tm := c.TransitionMatrix(0)
	tm.Lag = 50
	times, frac := tm.PopulationCurve([]float64{1, 0}, []int{1}, 3)
	wantTimes := []float64{0, 50, 100, 150}
	wantFrac := []float64{0, 0.2, 0.36, 0.488}
	for i := range wantTimes {
		if times[i] != wantTimes[i] {
			t.Errorf("times[%d] = %v", i, times[i])
		}
		if math.Abs(frac[i]-wantFrac[i]) > 1e-12 {
			t.Errorf("frac[%d] = %v, want %v", i, frac[i], wantFrac[i])
		}
	}
}

// --- adaptive sampling ---

func TestStateUncertainty(t *testing.T) {
	c := NewCounts(3)
	// State 0: many counts, deterministic → low uncertainty.
	c.Add(0, 1, 1000)
	// State 1: few counts, split → high uncertainty.
	c.Add(1, 0, 1)
	c.Add(1, 2, 1)
	// State 2: unvisited → maximal.
	u := StateUncertainty(c)
	if u[2] != 1 {
		t.Errorf("unvisited uncertainty = %v, want 1", u[2])
	}
	if !(u[1] > u[0]) {
		t.Errorf("u = %v; poorly sampled state must rank above well-sampled", u)
	}
	if u[0] != 0 {
		t.Errorf("deterministic transition uncertainty = %v, want 0", u[0])
	}
}

func TestSpawnCountsEven(t *testing.T) {
	eligible := []int{2, 5, 7}
	out, err := SpawnCounts(EvenWeighting, eligible, nil, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s, n := range out {
		total += n
		found := false
		for _, e := range eligible {
			if s == e {
				found = true
			}
		}
		if !found {
			t.Errorf("spawned from ineligible state %d", s)
		}
		if n < 3 || n > 4 {
			t.Errorf("even split gave state %d count %d", s, n)
		}
	}
	if total != 10 {
		t.Errorf("total spawns = %d, want 10", total)
	}
}

func TestSpawnCountsAdaptive(t *testing.T) {
	eligible := []int{0, 1, 2}
	u := []float64{0.01, 0.01, 1.0}
	out, err := SpawnCounts(AdaptiveWeighting, eligible, u, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range out {
		total += n
	}
	if total != 300 {
		t.Errorf("total = %d", total)
	}
	if out[2] < 250 {
		t.Errorf("high-uncertainty state got only %d of 300 spawns", out[2])
	}
}

func TestSpawnCountsAdaptiveAllZeroFallsBack(t *testing.T) {
	out, err := SpawnCounts(AdaptiveWeighting, []int{0, 1}, []float64{0, 0}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 2 {
		t.Errorf("zero-uncertainty fallback should be even, got %v", out)
	}
}

func TestSpawnCountsErrors(t *testing.T) {
	if _, err := SpawnCounts(EvenWeighting, []int{0}, nil, 0, 1); err == nil {
		t.Error("total=0 should fail")
	}
	if _, err := SpawnCounts(EvenWeighting, nil, nil, 5, 1); err == nil {
		t.Error("no eligible states should fail")
	}
	if _, err := SpawnCounts(AdaptiveWeighting, []int{5}, []float64{1}, 5, 1); err == nil {
		t.Error("eligible state outside uncertainty vector should fail")
	}
	if _, err := SpawnCounts(Weighting(42), []int{0}, []float64{1}, 5, 1); err == nil {
		t.Error("unknown weighting should fail")
	}
}

func TestSpawnCountsDeterministic(t *testing.T) {
	u := []float64{0.5, 0.5, 0.7}
	a, _ := SpawnCounts(AdaptiveWeighting, []int{0, 1, 2}, u, 50, 9)
	b, _ := SpawnCounts(AdaptiveWeighting, []int{0, 1, 2}, u, 50, 9)
	for s, n := range a {
		if b[s] != n {
			t.Fatal("SpawnCounts not deterministic")
		}
	}
}

func TestWeightingString(t *testing.T) {
	if EvenWeighting.String() != "even" || AdaptiveWeighting.String() != "adaptive" {
		t.Error("weighting names wrong")
	}
	if Weighting(9).String() != "weighting(9)" {
		t.Error("unknown weighting name wrong")
	}
}

func BenchmarkKCenters1000x200(b *testing.B) {
	pts := gaussianBlobs(20000, [][]float64{{0, 0, 0}, {5, 0, 0}, {0, 5, 0}, {0, 0, 5}}, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KCenters(pts, 200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPropagate(b *testing.B) {
	r := rng.New(1)
	n := 1000
	c := NewCounts(n)
	for i := 0; i < n; i++ {
		for k := 0; k < 10; k++ {
			c.Add(i, r.Intn(n), 1)
		}
	}
	tm := c.TransitionMatrix(0)
	p := make([]float64, n)
	p[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = tm.Propagate(p)
	}
}
