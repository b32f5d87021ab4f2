package md

import (
	"math"

	"copernicus/internal/vec"
)

// imager is the minimum-image convention of the engine's hot loops, for
// coordinates already wrapped into the box. Built once per box, it holds
// each axis's edge L and a factor h ≈ 2/L (both 0 on an aperiodic axis), and
// minImage is small enough to inline into the pair loops.
//
// vec.Box.MinImage computes d − L·Round(d/L) per axis: a division and a
// math.Round, which amd64 has no instruction for, behind a call. The engine
// holds every coordinate in [0, L): New and Resume wrap what they are handed
// and every drift wraps again. A raw difference d therefore lies in
// (−L, L), where Round(d/L) = Trunc(2d/L) exactly, the ties at ±L/2 included
// (math.Round takes them away from zero, and ±1 truncates to ±1). So
// minImage computes d − L·Trunc(d·h): a multiply and two conversions.
//
// Multiplying by h instead of dividing by L can flip that integer only where
// d·h is within rounding of ±1, for |d| within a few ulps of L/2. The
// component then comes out as ±L/2 with either sign and the same square to
// an ulp. New rejects a periodic axis shorter than 2·(cutoff+skin), so such
// a pair is at least the listing radius apart either way, and beyond the
// cutoff when the skin is positive: it gets no non-bonded force (bonded
// atoms that far apart have blown up), and an atom that moved that far since
// the last rebuild triggers the next either way. Only a box exactly 2·rlist
// wide, with the pair's other components zero, could list it one way and
// not the other. At the far end, fl(2/L) can round up enough that a
// difference just under L gives a product of 2, putting two atoms on
// opposite faces a whole box apart; imageAxis lowers h until the float below
// L stays under 2.
type imager struct {
	l, h vec.V3
}

func newImager(b vec.Box) imager {
	var m imager
	m.l.X, m.h.X = imageAxis(b.L.X)
	m.l.Y, m.h.Y = imageAxis(b.L.Y)
	m.l.Z, m.h.Z = imageAxis(b.L.Z)
	return m
}

// imageAxis returns an axis's edge and minImage's factor for it: 0, 0 for
// an aperiodic axis, else L and the largest h ≤ 2/L for which no |d| < L
// has fl(|d|·h) ≥ 2. Rounding is monotone, so checking the float below L
// covers every smaller |d|.
func imageAxis(l float64) (float64, float64) {
	if l <= 0 {
		return 0, 0
	}
	h := 2 / l
	for math.Nextafter(l, 0)*h >= 2 {
		h = math.Nextafter(h, 0)
	}
	return l, h
}

// minImage returns the minimum-image displacement p − q of two wrapped
// coordinates; see imager.
func (m imager) minImage(p, q vec.V3) vec.V3 {
	d := p.Sub(q)
	d.X -= m.l.X * float64(int64(d.X*m.h.X))
	d.Y -= m.l.Y * float64(int64(d.Y*m.h.Y))
	d.Z -= m.l.Z * float64(int64(d.Z*m.h.Z))
	return d
}
