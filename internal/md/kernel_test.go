package md

import (
	"fmt"
	"math"
	"testing"

	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// bakedList is the pair list with every pair's interaction parameters
// stored beside it, baked at rebuild time from the topology: c6 and c12
// from its pair table and (C·qᵢ)·qⱼ, or 0 when no atom is charged. The
// kernel computes these per pair instead; bakedList is its oracle.
type bakedList struct {
	ai, aj       []int32
	c6, c12, qqf []float64
}

func bake(pl *pairList, top *topology.Topology) bakedList {
	charged := false
	for _, a := range top.Atoms {
		charged = charged || a.Charge != 0
	}
	var b bakedList
	for i := 0; i+1 < len(pl.start); i++ {
		for _, j := range pl.aj[pl.start[i]:pl.start[i+1]] {
			a, o := top.Atoms[i], top.Atoms[j]
			c6, c12 := top.LJPair(a.Type, o.Type)
			var qqf float64
			if charged {
				qqf = topology.CoulombConst * a.Charge * o.Charge
			}
			b.ai = append(b.ai, int32(i))
			b.aj = append(b.aj, j)
			b.c6 = append(b.c6, c6)
			b.c12 = append(b.c12, c12)
			b.qqf = append(b.qqf, qqf)
		}
	}
	return b
}

// bakedKernel evaluates the pairs [lo, hi) of b as one pair at a time,
// reading the baked parameters and storing both atoms' forces per pair,
// with the kernel's cut-and-shifted LJ and reaction-field Coulomb
// expressions term for term.
func bakedKernel(s *Sim, b *bakedList, lo, hi int, out []vec.V3) (eLJ, eCoul float64) {
	rc := s.cfg.Cutoff
	rc2 := rc * rc
	var krf, crf float64
	if s.cfg.EpsilonRF > 0 {
		eps := s.cfg.EpsilonRF
		krf = (eps - 1) / ((2*eps + 1) * rc * rc * rc)
		crf = 1/rc + krf*rc2
	} else {
		crf = 1 / rc
	}
	invRc2 := 1 / rc2
	invRc6 := invRc2 * invRc2 * invRc2
	for k := lo; k < hi; k++ {
		i, j := b.ai[k], b.aj[k]
		d := s.im.minImage(s.pos[i], s.pos[j])
		r2 := d.Norm2()
		if r2 > rc2 || r2 == 0 {
			continue
		}
		inv2 := 1 / r2
		inv6 := inv2 * inv2 * inv2
		c6, c12 := b.c6[k], b.c12[k]
		fr := (12*c12*inv6*inv6 - 6*c6*inv6) * inv2
		eLJ += c12*inv6*inv6 - c6*inv6 - (c12*invRc6*invRc6 - c6*invRc6)
		if qqf := b.qqf[k]; qqf != 0 {
			r := math.Sqrt(r2)
			eCoul += qqf * (1/r + krf*r2 - crf)
			fr += qqf * (1/(r2*r) - 2*krf)
		}
		f := d.Scale(fr)
		out[i] = out[i].Add(f)
		out[j] = out[j].Sub(f)
	}
	return eLJ, eCoul
}

// mixture is an LJ fluid recast with three LJ types and charges of ±0.4 on
// three atoms in four, the rest uncharged.
func mixture(t *testing.T) *topology.System {
	t.Helper()
	sys, err := topology.LJFluid(400, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	top := sys.Top
	top.LJTypes = []topology.LJType{
		{Name: "A", Sigma: 0.34, Epsilon: 1.0},
		{Name: "B", Sigma: 0.30, Epsilon: 0.6},
		{Name: "C", Sigma: 0.38, Epsilon: 0.2},
	}
	for i := range top.Atoms {
		top.Atoms[i].Type = i % 3
		switch i % 4 {
		case 1:
			top.Atoms[i].Charge = 0.4
		case 2, 3:
			top.Atoms[i].Charge = -0.4
		}
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestNonbondedKernelMatchesBakedReference pins the parameters the pair list
// no longer stores: on each system, for serial, 2- and 3-shard splits of the
// list (so that ranges start mid-row), the kernel's forces and energies
// match bakedKernel's bit for bit. The systems are md_ensemble's water box
// (all-pairs sweep, two LJ types, charges), an LJ fluid (cell grid, one
// type, no charges), an aperiodic charged peptide, and a three-type mixture
// with uncharged atoms among charged ones (cell grid).
func TestNonbondedKernelMatchesBakedReference(t *testing.T) {
	water, err := topology.WaterBox(192, 1)
	if err != nil {
		t.Fatal(err)
	}
	waterCfg := DefaultConfig()
	waterCfg.Cutoff = 0.6
	waterCfg.Skin = 0.08
	fluid, err := topology.LJFluid(512, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	fluidCfg := nveConfig()
	peptide, err := topology.Peptide(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		sys     *topology.System
		cfg     Config
		steps   int
		charged bool
	}{
		{"water", water, waterCfg, 10, true},
		{"ljfluid", fluid, fluidCfg, 10, false},
		{"peptide", peptide, DefaultConfig(), 0, true},
		{"mixture", mixture(t), fluidCfg, 10, true},
	} {
		s, err := New(c.sys, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		defer s.Close()
		// Step past the rebuild, so some listed pairs lie beyond the cutoff.
		if err := s.Step(c.steps); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pl := &s.nbl.plist
		baked := bake(pl, s.top)
		np := pl.Len()
		got := make([]vec.V3, s.NAtoms())
		want := make([]vec.V3, s.NAtoms())
		for _, shards := range []int{1, 2, 3} {
			midRow := 0
			var coul float64
			for w := 0; w < shards; w++ {
				lo, hi := chunkRange(np, shards, w)
				if lo < np && int(pl.start[pl.rowOf(lo)]) < lo {
					midRow++
				}
				clear(got)
				clear(want)
				gLJ, gCoul := s.nonbondedRange(lo, hi, got)
				wLJ, wCoul := bakedKernel(s, &baked, lo, hi, want)
				label := fmt.Sprintf("%s shards %d range %d [%d, %d)", c.name, shards, w, lo, hi)
				if math.Float64bits(gLJ) != math.Float64bits(wLJ) || math.Float64bits(gCoul) != math.Float64bits(wCoul) {
					t.Fatalf("%s: energies LJ %v Coulomb %v, reference %v %v", label, gLJ, gCoul, wLJ, wCoul)
				}
				for i := range want {
					g, r := got[i], want[i]
					if math.Float64bits(g.X) != math.Float64bits(r.X) ||
						math.Float64bits(g.Y) != math.Float64bits(r.Y) ||
						math.Float64bits(g.Z) != math.Float64bits(r.Z) {
						t.Fatalf("%s: atom %d force %v, reference %v", label, i, g, r)
					}
				}
				coul += gCoul
			}
			if shards > 1 && midRow == 0 {
				t.Errorf("%s shards %d: no range starts mid-row", c.name, shards)
			}
			if (coul != 0) != c.charged {
				t.Errorf("%s shards %d: Coulomb energy %v", c.name, shards, coul)
			}
		}
	}
}
