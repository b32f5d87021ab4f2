package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero seed produced only %d distinct values of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	s := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		s += r.Float64()
	}
	mean := s / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < n/7-n/70 || c > n/7+n/70 {
			t.Errorf("Intn bucket %d count %d deviates >10%% from uniform", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	var s, s2 float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.Norm()
		s += x
		s2 += x * x
	}
	mean := s / n
	variance := s2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Gaussian variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm invalid at value %d", v)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(21)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split children produced %d identical draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(33).Split()
	b := New(33).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestChoiceWeights(t *testing.T) {
	r := New(25)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[r.Choice(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.15 {
		t.Errorf("Choice ratio = %v, want ~3", ratio)
	}
}

func TestChoicePanics(t *testing.T) {
	cases := map[string][]float64{
		"all zero": {0, 0},
		"negative": {1, -1},
		"empty":    {},
	}
	for name, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Choice(%s) should panic", name)
				}
			}()
			New(1).Choice(w)
		}()
	}
}

func TestMaxwellBoltzmannSpeed(t *testing.T) {
	// Water oxygen-ish mass at 300K: sigma = sqrt(kB*T/m).
	got := MaxwellBoltzmannSpeed(18.015, 300)
	want := math.Sqrt(0.0083144621 * 300 / 18.015)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MaxwellBoltzmannSpeed = %v, want %v", got, want)
	}
	// Hotter is faster, heavier is slower.
	if MaxwellBoltzmannSpeed(18, 600) <= MaxwellBoltzmannSpeed(18, 300) {
		t.Error("speed must increase with temperature")
	}
	if MaxwellBoltzmannSpeed(100, 300) >= MaxwellBoltzmannSpeed(1, 300) {
		t.Error("speed must decrease with mass")
	}
}

func TestMaxwellBoltzmannPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive mass should panic")
		}
	}()
	MaxwellBoltzmannSpeed(0, 300)
}

func TestShuffleUniformish(t *testing.T) {
	r := New(55)
	// Position of element 0 after shuffling [0..3] should be ~uniform.
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		arr := []int{0, 1, 2, 3}
		r.Shuffle(4, func(a, b int) { arr[a], arr[b] = arr[b], arr[a] })
		for pos, v := range arr {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		if c < n/4-n/40 || c > n/4+n/40 {
			t.Errorf("element 0 at position %d count %d deviates from uniform", pos, c)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}

func TestMarshalBinaryRoundTrip(t *testing.T) {
	r := New(77)
	// Advance to a state with a cached Gaussian spare.
	r.Norm()
	state, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r2 Source
	if err := r2.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := r.Norm(), r2.Norm(); a != b {
			t.Fatalf("restored stream diverged at draw %d: %v vs %v", i, a, b)
		}
		if a, b := r.Uint64(), r2.Uint64(); a != b {
			t.Fatalf("restored uint stream diverged at draw %d", i)
		}
	}
}

func TestUnmarshalBinaryRejectsGarbage(t *testing.T) {
	var r Source
	if err := r.UnmarshalBinary([]byte("short")); err == nil {
		t.Error("short state accepted")
	}
	if err := r.UnmarshalBinary(make([]byte, 100)); err == nil {
		t.Error("oversized state accepted")
	}
}
