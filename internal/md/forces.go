package md

import (
	"math"
	"sync"
	"time"

	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// parallelMinWork is the total term count (pairs + bonded terms) below which
// the sharded path is not worth its synchronisation overhead.
const parallelMinWork = 256

// shardPool holds the per-shard force buffers and the persistent worker
// goroutines of the force loop — the "thread" level of the paper's
// hierarchy. Workers are spawned lazily on the first parallel force call and
// live for the Sim's lifetime, fed one closure per shard per phase through an
// unbuffered channel; this replaces the per-step goroutine fan-out, whose
// spawn cost dominated small-system steps.
type shardPool struct {
	n      int // shard count
	forces [][]vec.V3
	eLJ    []float64
	eCoul  []float64
	eBond  []float64
	eAngle []float64
	eDih   []float64

	work    chan func()
	started bool
	closed  bool
}

func newShardPool(shards, natoms int) *shardPool {
	p := &shardPool{n: shards}
	if shards <= 1 {
		return p
	}
	p.forces = make([][]vec.V3, shards)
	for i := range p.forces {
		p.forces[i] = make([]vec.V3, natoms)
	}
	p.eLJ = make([]float64, shards)
	p.eCoul = make([]float64, shards)
	p.eBond = make([]float64, shards)
	p.eAngle = make([]float64, shards)
	p.eDih = make([]float64, shards)
	return p
}

// run executes fn(w) for every shard w on the persistent workers and blocks
// until all have finished.
func (p *shardPool) run(fn func(w int)) {
	if !p.started {
		p.started = true
		p.work = make(chan func())
		for w := 0; w < p.n; w++ {
			go func() {
				for f := range p.work {
					f()
				}
			}()
		}
	}
	var wg sync.WaitGroup
	wg.Add(p.n)
	for w := 0; w < p.n; w++ {
		w := w
		p.work <- func() {
			defer wg.Done()
			fn(w)
		}
	}
	wg.Wait()
}

// close terminates the persistent workers. Safe to call multiple times and
// on a pool that never started.
func (p *shardPool) close() {
	if p.started && !p.closed {
		p.closed = true
		close(p.work)
	}
}

// chunkRange splits n items into parts even chunks and returns chunk w.
func chunkRange(n, parts, w int) (lo, hi int) {
	chunk := (n + parts - 1) / parts
	lo = w * chunk
	if lo > n {
		lo = n
	}
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// computeForces evaluates all force-field terms into s.frc and stores the
// potential-energy breakdown in s.pot.
//
// With Shards <= 1 (or a trivially small system) everything runs inline and
// serially. Otherwise every term class — the non-bonded pairs and the
// bonded bond/angle/dihedral lists — is partitioned across the shard pool
// into private force buffers, followed by a parallel reduction in which each
// shard sums a disjoint atom range across all buffers, replacing the old
// serial O(shards × natoms) fold.
func (s *Sim) computeForces() {
	m := loadMDMetrics()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}

	np := s.nbl.plist.Len()
	nb, na, nd := len(s.top.Bonds), len(s.top.Angles), len(s.top.Dihedrals)
	ns := s.shards.n
	s.pot = Energies{}

	if ns <= 1 || np+nb+na+nd < parallelMinWork {
		for i := range s.frc {
			s.frc[i] = vec.Zero
		}
		s.pot.LJ, s.pot.Coulomb = s.nonbondedRange(0, np, s.frc)
		s.pot.Bond = s.bondRange(0, nb, s.frc)
		s.pot.Angle = s.angleRange(0, na, s.frc)
		s.pot.Dihedral = s.dihedralRange(0, nd, s.frc)
	} else {
		p := s.shards
		p.run(func(w int) {
			buf := p.forces[w]
			for i := range buf {
				buf[i] = vec.Zero
			}
			lo, hi := chunkRange(np, ns, w)
			p.eLJ[w], p.eCoul[w] = s.nonbondedRange(lo, hi, buf)
			lo, hi = chunkRange(nb, ns, w)
			p.eBond[w] = s.bondRange(lo, hi, buf)
			lo, hi = chunkRange(na, ns, w)
			p.eAngle[w] = s.angleRange(lo, hi, buf)
			lo, hi = chunkRange(nd, ns, w)
			p.eDih[w] = s.dihedralRange(lo, hi, buf)
		})
		n := len(s.frc)
		p.run(func(w int) {
			lo, hi := chunkRange(n, ns, w)
			for i := lo; i < hi; i++ {
				f := p.forces[0][i]
				for b := 1; b < ns; b++ {
					f = f.Add(p.forces[b][i])
				}
				s.frc[i] = f
			}
		})
		for w := 0; w < ns; w++ {
			s.pot.LJ += p.eLJ[w]
			s.pot.Coulomb += p.eCoul[w]
			s.pot.Bond += p.eBond[w]
			s.pot.Angle += p.eAngle[w]
			s.pot.Dihedral += p.eDih[w]
		}
	}

	if m != nil {
		dur := time.Since(t0).Seconds()
		m.forceSeconds.Observe(dur)
		m.pairsTotal.Add(uint64(np))
		s.winPairs += int64(np)
		s.winForceSec += dur
	}
}

// nonbondedRange computes LJ and reaction-field Coulomb interactions for the
// pair index range [lo, hi) of the list, accumulating forces into out. It
// returns the LJ and Coulomb energy contributions. The range may start and
// end mid-row. Per row, the loop holds atom i's position and force in
// registers, slices i's row of the LJ type table and premultiplies i's
// charge by the Coulomb constant; it stores out[i] once at the row's end,
// which adds in the same sequence as storing it per pair, since no partner
// j is i.
//
// Reaction field: V(r) = f q_i q_j (1/r + k_rf r² − c_rf) for r < r_c, with
// k_rf = (ε−1)/((2ε+1) r_c³) and c_rf = 1/r_c + k_rf r_c², so the potential
// and field vanish smoothly at the cutoff — the paper's villin protocol.
func (s *Sim) nonbondedRange(lo, hi int, out []vec.V3) (eLJ, eCoul float64) {
	rc := s.cfg.Cutoff
	rc2 := rc * rc
	var krf, crf float64
	if s.cfg.EpsilonRF > 0 {
		eps := s.cfg.EpsilonRF
		krf = (eps - 1) / ((2*eps + 1) * rc * rc * rc)
		crf = 1/rc + krf*rc2
	} else {
		crf = 1 / rc // plain shifted Coulomb
	}

	// Cut-and-shifted LJ: subtracting V(rc) per pair keeps the potential
	// continuous at the cutoff, which is what makes NVE energy conservation
	// possible with a plain cutoff.
	invRc2 := 1 / rc2
	invRc6 := invRc2 * invRc2 * invRc2

	im := s.im
	pos := s.pos
	nl := s.nbl
	start, aj := nl.plist.start, nl.plist.aj
	typ, chg, nt := nl.typ, nl.chg, nl.ntypes
	for i, k := nl.plist.rowOf(lo), lo; k < hi; i++ {
		end := min(int(start[i+1]), hi)
		pi, fi := pos[i], out[i]
		row := int(typ[i]) * nt
		c6s := nl.c6[row : row+nt]
		c12s := nl.c12[row : row+nt][:len(c6s)] // c6s's bounds check covers it
		cqi := topology.CoulombConst * chg[i]
		for _, j := range aj[k:end] {
			d := im.minImage(pi, pos[j])
			r2 := d.Norm2()
			if r2 > rc2 || r2 == 0 {
				continue
			}
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2

			c6, c12 := c6s[typ[j]], c12s[typ[j]]
			// F(r)·r̂/r = (12 c12 r⁻¹² − 6 c6 r⁻⁶) / r²
			fr := (12*c12*inv6*inv6 - 6*c6*inv6) * inv2
			eLJ += c12*inv6*inv6 - c6*inv6 - (c12*invRc6*invRc6 - c6*invRc6)

			if qqf := cqi * chg[j]; qqf != 0 {
				r := math.Sqrt(r2)
				eCoul += qqf * (1/r + krf*r2 - crf)
				fr += qqf * (1/(r2*r) - 2*krf)
			}

			f := d.Scale(fr)
			fi = fi.Add(f)
			out[j] = out[j].Sub(f)
		}
		out[i] = fi
		k = end
	}
	return eLJ, eCoul
}

// bondRange evaluates harmonic bonds V = ½K(r−r₀)² for the term range
// [lo, hi), accumulating forces into out and returning the energy.
func (s *Sim) bondRange(lo, hi int, out []vec.V3) float64 {
	e := 0.0
	im := s.im
	for _, b := range s.top.Bonds[lo:hi] {
		d := im.minImage(s.pos[b.I], s.pos[b.J])
		r := d.Norm()
		if r == 0 {
			continue
		}
		dr := r - b.R0
		e += 0.5 * b.K * dr * dr
		// F_I = −K (r−r₀) r̂
		f := d.Scale(-b.K * dr / r)
		out[b.I] = out[b.I].Add(f)
		out[b.J] = out[b.J].Sub(f)
	}
	return e
}

// angleRange evaluates harmonic angles V = ½K(θ−θ₀)² for the term range
// [lo, hi), accumulating forces into out and returning the energy.
func (s *Sim) angleRange(lo, hi int, out []vec.V3) float64 {
	e := 0.0
	im := s.im
	for _, a := range s.top.Angles[lo:hi] {
		rij := im.minImage(s.pos[a.I], s.pos[a.J])
		rkj := im.minImage(s.pos[a.K], s.pos[a.J])
		nij, nkj := rij.Norm(), rkj.Norm()
		if nij == 0 || nkj == 0 {
			continue
		}
		cosT := rij.Dot(rkj) / (nij * nkj)
		cosT = math.Max(-1, math.Min(1, cosT))
		theta := math.Acos(cosT)
		dT := theta - a.Theta0
		e += 0.5 * a.KForce * dT * dT

		sinT := math.Sqrt(1 - cosT*cosT)
		if sinT < 1e-8 {
			continue // collinear: force direction undefined, energy still counted
		}
		// dV/dθ = K (θ−θ₀); chain rule through cos θ.
		c := -a.KForce * dT / sinT
		fi := rkj.Scale(1 / (nij * nkj)).Sub(rij.Scale(cosT / (nij * nij))).Scale(c)
		fk := rij.Scale(1 / (nij * nkj)).Sub(rkj.Scale(cosT / (nkj * nkj))).Scale(c)
		out[a.I] = out[a.I].Add(fi)
		out[a.K] = out[a.K].Add(fk)
		out[a.J] = out[a.J].Sub(fi.Add(fk))
	}
	return e
}

// dihedralRange evaluates periodic dihedrals V = K(1 + cos(nφ − φ₀)) for the
// term range [lo, hi) with the Gromacs dih_angle/do_dih_fup vector
// decomposition: with r_ij = r_i − r_j, r_kj = r_k − r_j, r_kl = r_k − r_l,
// m = r_ij × r_kj, n = r_kj × r_kl, the signed angle is
// φ = atan2((r_ij·n)|r_kj|, m·n), and
// F_i = −(dV/dφ)(|r_kj|/|m|²) m, F_l = (dV/dφ)(|r_kj|/|n|²) n,
// with F_j, F_k fixed by momentum and torque conservation.
func (s *Sim) dihedralRange(lo, hi int, out []vec.V3) float64 {
	e := 0.0
	im := s.im
	for _, d := range s.top.Dihedrals[lo:hi] {
		rij := im.minImage(s.pos[d.I], s.pos[d.J])
		rkj := im.minImage(s.pos[d.K], s.pos[d.J])
		rkl := im.minImage(s.pos[d.K], s.pos[d.L])

		m := rij.Cross(rkj)
		nvec := rkj.Cross(rkl)
		m2 := m.Norm2()
		n2 := nvec.Norm2()
		rkjn := rkj.Norm()
		if m2 < 1e-18 || n2 < 1e-18 || rkjn < 1e-10 {
			continue // collinear configuration: dihedral undefined
		}
		phi := math.Atan2(rij.Dot(nvec)*rkjn, m.Dot(nvec))

		nf := float64(d.Mult)
		e += d.KForce * (1 + math.Cos(nf*phi-d.Phi0))
		// dV/dφ = −K n sin(nφ − φ₀)
		dVdPhi := -d.KForce * nf * math.Sin(nf*phi-d.Phi0)

		fI := m.Scale(-dVdPhi * rkjn / m2)
		fL := nvec.Scale(dVdPhi * rkjn / n2)
		p := rij.Dot(rkj) / (rkjn * rkjn)
		q := rkl.Dot(rkj) / (rkjn * rkjn)
		sv := fI.Scale(p).Sub(fL.Scale(q))
		fJ := sv.Sub(fI)
		fK := fL.Neg().Sub(sv)

		out[d.I] = out[d.I].Add(fI)
		out[d.J] = out[d.J].Add(fJ)
		out[d.K] = out[d.K].Add(fK)
		out[d.L] = out[d.L].Add(fL)
	}
	return e
}

// Forces returns a copy of the current force array.
func (s *Sim) Forces() []vec.V3 { return append([]vec.V3(nil), s.frc...) }
