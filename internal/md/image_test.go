package md

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"copernicus/internal/rng"
	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// ulp returns the spacing of floats at |x|.
func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// TestImagerMatchesMinImage checks the hot loops' minimum image against
// vec.Box.MinImage on wrapped coordinates in cubic, orthorhombic and partly
// aperiodic boxes: every component is bit-identical unless the raw
// difference is within 4 ulp of half the edge, where only the sign may
// differ, and at exact ties ±L/2 the squared norm is identical.
func TestImagerMatchesMinImage(t *testing.T) {
	water, err := topology.WaterBox(192, 1)
	if err != nil {
		t.Fatal(err)
	}
	boxes := []vec.Box{
		water.Box,
		vec.NewCubicBox(2),
		{L: vec.New(2.1, 3.7, 5.3)},
		{L: vec.New(2.5, 0, 4.1)},
		{L: vec.New(0, 0, 3.3)},
	}
	r := rng.New(11)
	for k := 0; k < 6; k++ {
		l := [3]float64{1 + 9*r.Float64(), 1 + 9*r.Float64(), 1 + 9*r.Float64()}
		if k%2 == 1 {
			l[r.Intn(3)] = 0
		}
		boxes = append(boxes, vec.Box{L: vec.New(l[0], l[1], l[2])})
	}

	// A raw difference just under the edge, the float below L against 0,
	// must stay just under the edge and not become a whole box negative: a
	// factor of plain 2/L fails this for about one edge in twenty.
	for k := 0; k < 20000; k++ {
		l := 0.5 + 20*r.Float64()
		box := vec.NewCubicBox(l)
		p := vec.New(math.Nextafter(l, 0), 0, 0)
		if got, want := newImager(box).minImage(p, vec.Zero).X, box.MinImage(p, vec.Zero).X; got != want {
			t.Fatalf("edge %v: minImage of the float below L = %v, vec.Box.MinImage gives %v", l, got, want)
		}
	}

	for _, box := range boxes {
		im := newImager(box)
		edges := [3]float64{box.L.X, box.L.Y, box.L.Z}
		check := func(p, q vec.V3) {
			t.Helper()
			got, want, d := im.minImage(p, q), box.MinImage(p, q), p.Sub(q)
			g, w, raw := [3]float64{got.X, got.Y, got.Z}, [3]float64{want.X, want.Y, want.Z}, [3]float64{d.X, d.Y, d.Z}
			for a := range g {
				if math.Float64bits(g[a]) == math.Float64bits(w[a]) {
					continue
				}
				half := edges[a] / 2
				if edges[a] > 0 && math.Abs(math.Abs(raw[a])-half) <= 4*ulp(half) {
					continue
				}
				t.Fatalf("box %v: minImage(%v, %v) axis %d = %v, vec.Box.MinImage gives %v", box.L, p, q, a, g[a], w[a])
			}
		}
		coord := func(l float64) float64 {
			if l == 0 {
				return 10 * (r.Float64() - 0.5)
			}
			return l * (6*r.Float64() - 3)
		}
		random := func() vec.V3 {
			return box.Wrap(vec.New(coord(box.L.X), coord(box.L.Y), coord(box.L.Z)))
		}
		for n := 0; n < 20000; n++ {
			check(random(), random())
		}
		// Extremes and the neighbourhood of the ties on each periodic axis,
		// against random coordinates on the other two.
		for a, l := range edges {
			if l == 0 {
				continue
			}
			special := []float64{0, math.Nextafter(l, 0), l / 2, math.Nextafter(l/2, 0), math.Nextafter(l/2, l), l / 4}
			set := func(v vec.V3, x float64) vec.V3 {
				c := [3]float64{v.X, v.Y, v.Z}
				c[a] = x
				return vec.New(c[0], c[1], c[2])
			}
			for _, x := range special {
				for _, y := range special {
					p, q := set(random(), x), set(random(), y)
					check(p, q)
					if math.Abs(x-y) == l/2 {
						if g, w := im.minImage(p, q).Norm2(), box.MinImage(p, q).Norm2(); g != w {
							t.Fatalf("box %v: tie %v − %v on axis %d: Norm2 %v, vec.Box.MinImage gives %v", box.L, x, y, a, g, w)
						}
					}
				}
			}
		}
	}
}

// TestNewAndResumeWrapCoordinates hands New and Resume a periodic water box
// whose coordinates are shifted by ±L and ±2L per axis and checks that they
// build the same pair list and energies as from the wrapped copy: the pair
// loops' minimum image holds only for coordinates inside the box.
func TestNewAndResumeWrapCoordinates(t *testing.T) {
	sys, err := topology.WaterBox(192, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cutoff = 0.6
	cfg.Skin = 0.08
	shifts := [4]float64{-2, -1, 1, 2}
	l := sys.Box.L
	shift := func(pos []vec.V3) (shifted, wrapped []vec.V3) {
		for i, p := range pos {
			s := p.Add(vec.New(shifts[i%4]*l.X, shifts[(i/4)%4]*l.Y, shifts[(i/16)%4]*l.Z))
			shifted = append(shifted, s)
			wrapped = append(wrapped, sys.Box.Wrap(s))
		}
		return shifted, wrapped
	}
	same := func(label string, a, b *Sim) {
		t.Helper()
		samePairList(t, label, &a.nbl.plist, &b.nbl.plist)
		if ea, eb := a.Energies(), b.Energies(); ea != eb {
			t.Fatalf("%s: energies %+v, from the wrapped copy %+v", label, ea, eb)
		}
	}

	shifted, wrapped := *sys, *sys
	shifted.Pos, wrapped.Pos = shift(sys.Pos)
	a, err := New(&shifted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(&wrapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same("New", a, b)

	if err := b.Step(20); err != nil {
		t.Fatal(err)
	}
	ckpt, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var data checkpointData
	if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&data); err != nil {
		t.Fatal(err)
	}
	encode := func(pos, ref []vec.V3) []byte {
		d := data
		d.Pos, d.NbrRef = pos, ref
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(d); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	posShifted, posWrapped := shift(data.Pos)
	refShifted, refWrapped := shift(data.NbrRef)
	ra, err := Resume(sys, cfg, encode(posShifted, refShifted))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Resume(sys, cfg, encode(posWrapped, refWrapped))
	if err != nil {
		t.Fatal(err)
	}
	same("Resume", ra, rb)
	for _, s := range []*Sim{a, b, ra, rb} {
		s.Close()
	}
}
