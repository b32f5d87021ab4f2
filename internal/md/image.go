package md

import "copernicus/internal/vec"

// imager is the minimum-image convention of the engine's hot loops, for
// coordinates already wrapped into the box. Built once per box, it holds
// each axis's edge L and 1/L (both 0 on an aperiodic axis), and minImage
// inlines into the pair loops. They hold it by pointer: at 48 bytes it does
// not fit in registers, and a value receiver copies it at every call.
//
// vec.Box.MinImage computes d − L·Round(d/L) per axis: a division and a
// math.Round, which amd64 has no instruction for, behind a call. The engine
// holds every coordinate in [0, L): New and Resume wrap what they are handed
// and every drift wraps again. A raw difference d therefore lies in
// (−L, L), so d·(1/L) lies in [−1, 1] and its nearest integer k is −1, 0 or
// 1. minImage rounds by adding and subtracting roundShift, with no
// float→int→float round trip: an axis costs d − L·k, two multiplies and
// three adds past the difference.
//
// k can differ from Round(d/L) only where d·(1/L) is within rounding of
// ±½, for |d| within a few ulps of L/2, the exact tie included (rounded to
// even, 0, where math.Round goes away from zero). The component then comes
// out as ±L/2 with either sign and the same square to an ulp. New rejects
// a periodic axis shorter than 2·(cutoff+skin), so such a pair is at least
// the listing radius apart either way, and beyond the cutoff when the skin
// is positive: it gets no non-bonded force (bonded atoms that far apart
// have blown up), and an atom that moved that far since the last rebuild
// triggers the next either way. Only a box exactly 2·rlist wide, with the
// pair's other components zero, could list it one way and not the other.
type imager struct {
	l, inv vec.V3
}

// roundShift is 1.5·2⁵²: for |x| < 2⁵¹, x + roundShift lies in [2⁵², 2⁵³),
// where the spacing of floats is 1, so (x + roundShift) − roundShift is x
// rounded to the nearest integer, ties to even.
const roundShift = 1.5 * (1 << 52)

func newImager(b vec.Box) *imager {
	m := new(imager)
	m.l.X, m.inv.X = imageAxis(b.L.X)
	m.l.Y, m.inv.Y = imageAxis(b.L.Y)
	m.l.Z, m.inv.Z = imageAxis(b.L.Z)
	return m
}

// imageAxis returns an axis's L and 1/L, or 0, 0 for an aperiodic axis.
func imageAxis(l float64) (float64, float64) {
	if l <= 0 {
		return 0, 0
	}
	return l, 1 / l
}

// minImage returns the minimum-image displacement p − q of two wrapped
// coordinates; see imager.
func (m *imager) minImage(p, q vec.V3) vec.V3 {
	d := p.Sub(q)
	d.X -= m.l.X * ((d.X*m.inv.X + roundShift) - roundShift)
	d.Y -= m.l.Y * ((d.Y*m.inv.Y + roundShift) - roundShift)
	d.Z -= m.l.Z * ((d.Z*m.inv.Z + roundShift) - roundShift)
	return d
}
