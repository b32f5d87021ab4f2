package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAddSubScale(t *testing.T) {
	v := New(1, 2, 3)
	w := New(4, -5, 6)
	if got := v.Add(w); got != New(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != New(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != New(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Neg(); got != New(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(x); got != z.Neg() {
		t.Errorf("y cross x = %v, want -z", got)
	}
	if got := x.Dot(y); got != 0 {
		t.Errorf("x dot y = %v", got)
	}
	v := New(3, 4, 0)
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := v.Norm2(); got != 25 {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestUnit(t *testing.T) {
	v := New(0, 3, 4)
	u := v.Unit()
	if !almostEq(u.Norm(), 1, 1e-14) {
		t.Errorf("Unit norm = %v", u.Norm())
	}
	if Zero.Unit() != Zero {
		t.Error("Unit of zero vector should be zero")
	}
}

func TestMulAdd(t *testing.T) {
	v := New(1, 1, 1)
	got := v.MulAdd(2, New(1, 2, 3))
	if got != New(3, 5, 7) {
		t.Errorf("MulAdd = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !New(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if New(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if New(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestPropertyCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := New(clamp(ax), clamp(ay), clamp(az))
		b := New(clamp(bx), clamp(by), clamp(bz))
		c := a.Cross(b)
		scale := a.Norm()*b.Norm() + 1
		return math.Abs(c.Dot(a)) < 1e-9*scale*scale && math.Abs(c.Dot(b)) < 1e-9*scale*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp maps arbitrary float64 quickcheck inputs into a well-behaved range.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 1e6)
}

func TestBoxWrap(t *testing.T) {
	b := NewCubicBox(10)
	cases := []struct{ in, want V3 }{
		{New(5, 5, 5), New(5, 5, 5)},
		{New(11, -1, 25), New(1, 9, 5)},
		{New(-0.5, 10, 0), New(9.5, 0, 0)},
	}
	for _, c := range cases {
		got := b.Wrap(c.in)
		if got.Sub(c.want).Norm() > 1e-12 {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBoxWrapAperiodic(t *testing.T) {
	b := Box{} // no periodicity
	p := New(123, -456, 789)
	if b.Wrap(p) != p {
		t.Error("aperiodic box must not wrap")
	}
	if b.MinImage(p, Zero) != p {
		t.Error("aperiodic min image must be plain difference")
	}
	if b.Volume() != 1 {
		t.Errorf("aperiodic volume = %v, want 1", b.Volume())
	}
}

func TestMinImage(t *testing.T) {
	b := NewCubicBox(10)
	// Points near opposite faces are actually close.
	d := b.MinImage(New(9.5, 0, 0), New(0.5, 0, 0))
	if !almostEq(d.Norm(), 1, 1e-12) {
		t.Errorf("MinImage distance = %v, want 1", d.Norm())
	}
	if !almostEq(b.Dist(New(9.5, 0, 0), New(0.5, 0, 0)), 1, 1e-12) {
		t.Errorf("Dist via min image wrong")
	}
}

func TestPropertyWrapInBox(t *testing.T) {
	b := NewCubicBox(7.3)
	f := func(x, y, z float64) bool {
		p := b.Wrap(New(clamp(x), clamp(y), clamp(z)))
		return p.X >= 0 && p.X < 7.3 && p.Y >= 0 && p.Y < 7.3 && p.Z >= 0 && p.Z < 7.3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMinImageShortest(t *testing.T) {
	b := NewCubicBox(5)
	f := func(x, y, z float64) bool {
		d := b.MinImage(New(clamp(x), clamp(y), clamp(z)), Zero)
		return math.Abs(d.X) <= 2.5+1e-9 && math.Abs(d.Y) <= 2.5+1e-9 && math.Abs(d.Z) <= 2.5+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVolume(t *testing.T) {
	if got := NewCubicBox(2).Volume(); got != 8 {
		t.Errorf("Volume = %v", got)
	}
	b := Box{L: New(2, 0, 3)} // one aperiodic axis
	if got := b.Volume(); got != 6 {
		t.Errorf("Volume with aperiodic axis = %v", got)
	}
}
