// Package rng implements the deterministic random number generation used by
// every stochastic component of the reproduction: simulation seeds, initial
// velocity draws, Langevin noise, clustering seeds and the discrete-event
// simulator.
//
// The generator is xoshiro256**, seeded through SplitMix64 so that any
// 64-bit seed (including 0) produces a well-mixed state. Each consumer owns
// its own *Source; sources are NOT safe for concurrent use, matching the
// design rule that goroutines never share a generator. Split derives
// statistically independent child streams, which is how a parent experiment
// hands seeds to parallel trajectories reproducibly.
package rng

import (
	"errors"
	"math"
)

// Source is a deterministic xoshiro256** pseudo-random source.
// The zero value is invalid; use New.
type Source struct {
	s [4]uint64
	// cached spare Gaussian deviate for the Box–Muller pair
	spare    float64
	hasSpare bool
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var s Source
	sm := seed
	for i := range s.s {
		sm, s.s[i] = splitMix64(sm)
	}
	// xoshiro must not start at the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9E3779B97F4A7C15
	}
	return &s
}

// splitMix64 advances the SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return state, z
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new Source whose stream is statistically independent of
// the parent's. The child is derived by drawing a fresh seed from the
// parent, so splitting is itself deterministic.
func (r *Source) Split() *Source { return New(r.Uint64()) }

// Float64 returns a uniform deviate in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return
}

// Norm returns a standard Gaussian deviate (mean 0, variance 1) using the
// Marsaglia polar form of Box–Muller, caching the spare deviate.
func (r *Source) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns an index drawn from the (not necessarily normalised)
// non-negative weight vector w. It panics if the total weight is not
// positive or any weight is negative.
func (r *Source) Choice(w []float64) int {
	total := 0.0
	for i, x := range w {
		if x < 0 || math.IsNaN(x) {
			panic("rng: Choice with negative or NaN weight")
		}
		_ = i
		total += x
	}
	if total <= 0 {
		panic("rng: Choice with non-positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	// Floating point rounding: return the last positive-weight index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return len(w) - 1
}

// MaxwellBoltzmannSpeed returns the standard deviation of each velocity
// component for a particle of mass m (in u) at temperature T (in K), in
// nm/ps — the unit system of the MD substrate (kB in kJ/(mol·K)).
func MaxwellBoltzmannSpeed(m, temperature float64) float64 {
	const kB = 0.0083144621 // kJ/(mol K)
	if m <= 0 {
		panic("rng: MaxwellBoltzmannSpeed with non-positive mass")
	}
	return math.Sqrt(kB * temperature / m)
}

// MarshalBinary encodes the generator state (including the cached Gaussian
// spare) so simulations can checkpoint mid-stream and resume bit-for-bit.
func (r *Source) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 4*8+8+1)
	for i, s := range r.s {
		putUint64(buf[i*8:], s)
	}
	putUint64(buf[32:], math.Float64bits(r.spare))
	if r.hasSpare {
		buf[40] = 1
	}
	return buf, nil
}

// UnmarshalBinary restores state written by MarshalBinary.
func (r *Source) UnmarshalBinary(data []byte) error {
	if len(data) != 41 {
		return errBadState
	}
	for i := range r.s {
		r.s[i] = getUint64(data[i*8:])
	}
	r.spare = math.Float64frombits(getUint64(data[32:]))
	r.hasSpare = data[40] == 1
	return nil
}

var errBadState = errors.New("rng: invalid serialized state")

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
