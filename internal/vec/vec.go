// Package vec provides small fixed-dimension vector math used throughout the
// molecular dynamics substrate: 3-vectors and periodic boundary conditions
// with the minimum-image convention.
//
// All types are plain values; none of the operations allocate, which keeps
// the force kernels in internal/md free of garbage-collector pressure.
package vec

import (
	"fmt"
	"math"
)

// V3 is a three-component vector of float64, the basic coordinate type for
// positions, velocities and forces.
type V3 struct {
	X, Y, Z float64
}

// New returns the vector (x, y, z).
func New(x, y, z float64) V3 { return V3{x, y, z} }

// Zero is the zero vector.
var Zero = V3{}

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v V3) Scale(s float64) V3 { return V3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the inner product of v and w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v V3) Cross(w V3) V3 {
	return V3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm2 returns |v|².
func (v V3) Norm2() float64 { return v.Dot(v) }

// Norm returns |v|.
func (v V3) Norm() float64 { return math.Sqrt(v.Norm2()) }

// Unit returns v normalised to unit length. The zero vector is returned
// unchanged.
func (v V3) Unit() V3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// MulAdd returns v + s*w, the fused form used in integrators.
func (v V3) MulAdd(s float64, w V3) V3 {
	return V3{v.X + s*w.X, v.Y + s*w.Y, v.Z + s*w.Z}
}

// Neg returns -v.
func (v V3) Neg() V3 { return V3{-v.X, -v.Y, -v.Z} }

// Dist returns |v - w|.
func (v V3) Dist(w V3) float64 { return v.Sub(w).Norm() }

// IsFinite reports whether all components are finite numbers.
func (v V3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v V3) String() string { return fmt.Sprintf("(%.6g, %.6g, %.6g)", v.X, v.Y, v.Z) }

// Box is an orthorhombic periodic simulation box with edge lengths L.
// A zero component disables periodicity along that axis.
type Box struct {
	L V3
}

// NewCubicBox returns a cubic box with edge length l.
func NewCubicBox(l float64) Box { return Box{L: V3{l, l, l}} }

// Volume returns the box volume; zero-length axes contribute factor 1 so a
// fully aperiodic box reports volume 1 (useful as a neutral density factor).
func (b Box) Volume() float64 {
	v := 1.0
	for _, l := range [3]float64{b.L.X, b.L.Y, b.L.Z} {
		if l > 0 {
			v *= l
		}
	}
	return v
}

// Wrap returns p wrapped into the primary cell [0, L) on each periodic axis.
func (b Box) Wrap(p V3) V3 {
	return V3{wrap1(p.X, b.L.X), wrap1(p.Y, b.L.Y), wrap1(p.Z, b.L.Z)}
}

func wrap1(x, l float64) float64 {
	if l <= 0 {
		return x
	}
	x -= l * math.Floor(x/l)
	// Guard against x == l from floating point rounding.
	if x >= l {
		x -= l
	}
	return x
}

// MinImage returns the minimum-image displacement d = p - q, i.e. the
// shortest vector from q to p under periodic boundary conditions.
func (b Box) MinImage(p, q V3) V3 {
	d := p.Sub(q)
	return V3{minImage1(d.X, b.L.X), minImage1(d.Y, b.L.Y), minImage1(d.Z, b.L.Z)}
}

func minImage1(d, l float64) float64 {
	if l <= 0 {
		return d
	}
	d -= l * math.Round(d/l)
	return d
}

// Dist returns the minimum-image distance between p and q.
func (b Box) Dist(p, q V3) float64 { return b.MinImage(p, q).Norm() }
