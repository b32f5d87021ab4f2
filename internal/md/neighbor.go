package md

import (
	"math"
	"sync"
	"sync/atomic"

	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// pairList is the packed struct-of-arrays pair list the non-bonded kernel
// iterates. All interaction parameters are baked in at rebuild time — the
// combined LJ coefficients and the premultiplied charge product — so the
// per-pair inner loop touches no topology tables and no Atom structs, only
// these flat arrays and the position slice. Entries are grouped by ascending
// ai, which keeps the force writes for one i atom in consecutive iterations.
type pairList struct {
	ai, aj []int32
	c6     []float64
	c12    []float64
	qqf    []float64 // CoulombConst · q_i · q_j; 0 means no Coulomb term
}

// Len returns the number of packed pairs.
func (pl *pairList) Len() int { return len(pl.ai) }

func (pl *pairList) reset() {
	pl.ai = pl.ai[:0]
	pl.aj = pl.aj[:0]
	pl.c6 = pl.c6[:0]
	pl.c12 = pl.c12[:0]
	pl.qqf = pl.qqf[:0]
}

func (pl *pairList) append(i, j int32, c6, c12, qqf float64) {
	pl.ai = append(pl.ai, i)
	pl.aj = append(pl.aj, j)
	pl.c6 = append(pl.c6, c6)
	pl.c12 = append(pl.c12, c12)
	pl.qqf = append(pl.qqf, qqf)
}

// resize sets the arrays to exactly n entries, reusing capacity. When it has
// to allocate it leaves a quarter of headroom, so a list whose length creeps
// up across rebuilds stops reallocating after the first few.
func (pl *pairList) resize(n int) {
	pl.ai = resized(pl.ai, n)
	pl.aj = resized(pl.aj, n)
	pl.c6 = resized(pl.c6, n)
	pl.c12 = resized(pl.c12, n)
	pl.qqf = resized(pl.qqf, n)
}

// reserve empties the list and makes room for n entries, with resize's
// headroom, so appending up to that many allocates nothing.
func (pl *pairList) reserve(n int) {
	pl.resize(n)
	pl.reset()
}

func resized[T int32 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// halfShellStencil is the 13 forward neighbour cell offsets of the half-shell
// traversal, fixed for every rebuild (hoisted so rebuilds allocate nothing).
var halfShellStencil = func() [][3]int {
	var st [][3]int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if dx > 0 || (dx == 0 && dy > 0) || (dx == 0 && dy == 0 && dz > 0) {
					st = append(st, [3]int{dx, dy, dz})
				}
			}
		}
	}
	return st
}()

// neighborList produces the packed pair list consumed by the non-bonded
// kernel. Periodic boxes at least three listing radii wide use a linked-cell
// decomposition with cells at least rlist wide, its pair generation split
// over x-slabs of the grid. Smaller boxes and aperiodic systems (single
// molecules in vacuo) take an O(n²) sweep split over bands of rows. Both
// splits run on the command's rebuild workers.
//
// The generated list is deterministic and independent of the worker count:
// each slab or band fills its own buffer in the order a serial sweep would
// use, and the buffers are joined in slab or band order (for slabs, followed
// by a group-by-i counting sort).
type neighborList struct {
	box   vec.Box
	im    imager
	rlist float64  // cutoff + skin
	plist pairList // packed output consumed by the kernel

	// per-atom parameter caches, filled once from the topology
	typ []int32
	chg []float64
	qed bool // true if any atom carries charge

	// rebuild scratch, reused across rebuilds
	nc      [3]int
	heads   []int32
	next    []int32
	cellDim vec.V3
	slabs   []pairList // per-x-slab or per-row-band pair buffers
	bands   []int      // row-band bounds: band b is rows [bands[b], bands[b+1])
	counts  []int32    // counting-sort scratch, len natoms
}

// parallelMinCandidates is the candidate pair count below which a rebuild
// is not worth a fan-out: n(n−1)/2 for the all-pairs sweep (about 180
// atoms), gridCandidates for the cell grid.
const parallelMinCandidates = 1 << 14

// bandsPerWorker cuts the all-pairs sweep finer than the worker count, so a
// worker the scheduler delays holds up at most a small band.
const bandsPerWorker = 4

func newNeighborList(box vec.Box, rlist float64) *neighborList {
	return &neighborList{box: box, im: newImager(box), rlist: rlist}
}

// periodic reports whether all three axes are periodic, the only case the
// cell grid handles.
func (nl *neighborList) periodic() bool {
	return nl.box.L.X > 0 && nl.box.L.Y > 0 && nl.box.L.Z > 0
}

// cacheAtomParams snapshots per-atom LJ type and charge into flat arrays so
// pair packing reads int32/float64 slices instead of Atom structs.
func (nl *neighborList) cacheAtomParams(top *topology.Topology) {
	if len(nl.typ) == len(top.Atoms) {
		return
	}
	nl.typ = make([]int32, len(top.Atoms))
	nl.chg = make([]float64, len(top.Atoms))
	for i, a := range top.Atoms {
		nl.typ[i] = int32(a.Type)
		nl.chg[i] = a.Charge
		if a.Charge != 0 {
			nl.qed = true
		}
	}
}

// rebuildWith regenerates the pair list from current positions, splitting
// the work across up to `workers` goroutines. The result is identical for
// every worker count.
func (nl *neighborList) rebuildWith(pos []vec.V3, top *topology.Topology, workers int) {
	nl.cacheAtomParams(top)
	if nl.periodic() && nl.gridFits() {
		nl.rebuildCells(pos, top, workers)
	} else {
		nl.rebuildAllPairs(pos, top, workers)
	}
}

// gridFits reports whether the box supports at least 3 cells per axis, the
// minimum for the half-shell cell traversal to visit each image once.
func (nl *neighborList) gridFits() bool {
	for _, l := range [3]float64{nl.box.L.X, nl.box.L.Y, nl.box.L.Z} {
		if int(l/nl.rlist) < 3 {
			return false
		}
	}
	return true
}

// expectedPairs estimates a periodic box's list length from its density
// (half of each atom's neighbours within rlist), for presizing the pair
// buffers. Aperiodic systems get 0: their lists grow by append.
func (nl *neighborList) expectedPairs(natoms int) int {
	if !nl.periodic() {
		return 0
	}
	n := float64(natoms)
	sphere := 4 * math.Pi / 3 * nl.rlist * nl.rlist * nl.rlist
	return int(0.5 * n * n * sphere / nl.box.Volume())
}

// fillSlabs fills the pair buffers nl.slabs[0:n], buffer k by fill, on up
// to `workers` goroutines (the caller among them) that pull buffer indices
// from a shared cursor; it returns once all are full. Each buffer is first
// reserved for `per` pairs. fill gets and returns the buffer by value, so it
// appends to a header on its own stack: appending through nl.slabs[k] itself
// would rewrite, on every pair, a cache line that neighbouring buffers'
// headers share.
func (nl *neighborList) fillSlabs(workers, n, per int, fill func(buf pairList, k int) pairList) {
	if len(nl.slabs) < n {
		nl.slabs = append(nl.slabs, make([]pairList, n-len(nl.slabs))...)
	}
	var cursor atomic.Int64
	work := func() {
		for {
			k := int(cursor.Add(1)) - 1
			if k >= n {
				return
			}
			nl.slabs[k].reserve(per)
			nl.slabs[k] = fill(nl.slabs[k], k)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// packInto appends pair (i, j) with baked interaction parameters, normalising
// to i < j. Exclusions have already been filtered by the caller.
func (nl *neighborList) packInto(buf *pairList, top *topology.Topology, i, j int) {
	if i > j {
		i, j = j, i
	}
	c6, c12 := top.LJPair(int(nl.typ[i]), int(nl.typ[j]))
	var qqf float64
	if nl.qed {
		qqf = topology.CoulombConst * nl.chg[i] * nl.chg[j]
	}
	buf.append(int32(i), int32(j), c6, c12, qqf)
}

// rebuildAllPairs is the O(n²) sweep over every i < j, for boxes too small
// for the cell grid and for aperiodic systems. Row i holds the n−i−1
// candidates j > i; the rows are cut into bands of equal candidate count,
// each band fills its own buffer, and the buffers are concatenated in band
// order. The list thus comes out grouped by ascending i, in serial sweep
// order, whatever the worker count.
func (nl *neighborList) rebuildAllPairs(pos []vec.V3, top *topology.Topology, workers int) {
	n := len(pos)
	candidates := n * (n - 1) / 2
	expected := nl.expectedPairs(n)
	if workers <= 1 || candidates < parallelMinCandidates {
		nl.plist.reserve(expected)
		nl.fillRows(&nl.plist, pos, top, 0, n)
		return
	}

	nbands := bandsPerWorker * workers
	nl.bands = append(nl.bands[:0], 0)
	i, done := 0, 0
	for b := 1; b < nbands; b++ {
		for i < n && done*nbands < b*candidates {
			done += n - i - 1
			i++
		}
		nl.bands = append(nl.bands, i)
	}
	nl.bands = append(nl.bands, n)

	nl.fillSlabs(workers, nbands, expected/nbands, func(buf pairList, b int) pairList {
		nl.fillRows(&buf, pos, top, nl.bands[b], nl.bands[b+1])
		return buf
	})

	total := 0
	for b := 0; b < nbands; b++ {
		total += nl.slabs[b].Len()
	}
	nl.plist.resize(total)
	dst, off := &nl.plist, 0
	for b := 0; b < nbands; b++ {
		src := &nl.slabs[b]
		copy(dst.ai[off:], src.ai)
		copy(dst.aj[off:], src.aj)
		copy(dst.c6[off:], src.c6)
		copy(dst.c12[off:], src.c12)
		copy(dst.qqf[off:], src.qqf)
		off += src.Len()
	}
}

// fillRows appends the pairs of rows [lo, hi) to buf in sweep order. The
// distance test runs first, and only the quarter or so of candidates within
// range meet the exclusion test: a cursor into row i's sorted exclusion list
// (the order BuildExclusions makes and Excluded's binary search relies on)
// that walks forward as j ascends. Pairs are packed inline onto local slice
// headers, written back once.
func (nl *neighborList) fillRows(buf *pairList, pos []vec.V3, top *topology.Topology, lo, hi int) {
	im := nl.im
	r2 := nl.rlist * nl.rlist
	typ, chg := nl.typ, nl.chg
	ai, aj, c6s, c12s, qqfs := buf.ai, buf.aj, buf.c6, buf.c12, buf.qqf
	for i := lo; i < hi; i++ {
		p := pos[i]
		ti := int(typ[i])
		var cqi float64
		if nl.qed {
			cqi = topology.CoulombConst * chg[i]
		}
		var excl []int
		if i < len(top.Exclusions) {
			excl = top.Exclusions[i]
		}
		x := 0
		for j := i + 1; j < len(pos); j++ {
			if im.minImage(p, pos[j]).Norm2() > r2 {
				continue
			}
			for x < len(excl) && excl[x] < j {
				x++
			}
			if x < len(excl) && excl[x] == j {
				continue
			}
			c6, c12 := top.LJPair(ti, int(typ[j]))
			ai = append(ai, int32(i))
			aj = append(aj, int32(j))
			c6s = append(c6s, c6)
			c12s = append(c12s, c12)
			qqfs = append(qqfs, cqi*chg[j])
		}
	}
	buf.ai, buf.aj, buf.c6, buf.c12, buf.qqf = ai, aj, c6s, c12s, qqfs
}

func (nl *neighborList) rebuildCells(pos []vec.V3, top *topology.Topology, workers int) {
	l := nl.box.L
	nl.nc[0] = int(l.X / nl.rlist)
	nl.nc[1] = int(l.Y / nl.rlist)
	nl.nc[2] = int(l.Z / nl.rlist)
	nl.cellDim = vec.New(l.X/float64(nl.nc[0]), l.Y/float64(nl.nc[1]), l.Z/float64(nl.nc[2]))

	ncells := nl.nc[0] * nl.nc[1] * nl.nc[2]
	if cap(nl.heads) < ncells {
		nl.heads = make([]int32, ncells)
	}
	nl.heads = nl.heads[:ncells]
	for i := range nl.heads {
		nl.heads[i] = -1
	}
	if cap(nl.next) < len(pos) {
		nl.next = make([]int32, len(pos))
	}
	nl.next = nl.next[:len(pos)]

	for i, p := range pos {
		c := nl.cellOf(p)
		nl.next[i] = nl.heads[c]
		nl.heads[c] = int32(i)
	}

	if nl.gridCandidates(len(pos)) < parallelMinCandidates {
		workers = 1
	}
	// Per-x-slab pair generation. Each slab owns the cells with its cx and
	// appends into its private buffer; merging in cx order reproduces the
	// serial traversal order exactly, whatever the worker count.
	nslabs := nl.nc[0]
	nl.fillSlabs(workers, nslabs, nl.expectedPairs(len(pos))/nslabs, func(buf pairList, cx int) pairList {
		nl.fillSlab(&buf, cx, pos, top)
		return buf
	})
	nl.mergeSlabs(nslabs, len(pos))
}

// gridCandidates estimates the candidate pairs the cell grid's half-shell
// traversal meets for natoms atoms: each atom against half of its own cell
// and 13 neighbour cells, 13.5·n²/cells in all.
func (nl *neighborList) gridCandidates(natoms int) int {
	return 27 * natoms * natoms / (2 * nl.nc[0] * nl.nc[1] * nl.nc[2])
}

// cellOf maps a position to its grid cell, clamping against rounding at both
// edges so no finite coordinate can index out of range.
func (nl *neighborList) cellOf(p vec.V3) int {
	w := nl.box.Wrap(p)
	cx := int(w.X / nl.cellDim.X)
	cy := int(w.Y / nl.cellDim.Y)
	cz := int(w.Z / nl.cellDim.Z)
	if cx < 0 {
		cx = 0
	} else if cx >= nl.nc[0] {
		cx = nl.nc[0] - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= nl.nc[1] {
		cy = nl.nc[1] - 1
	}
	if cz < 0 {
		cz = 0
	} else if cz >= nl.nc[2] {
		cz = nl.nc[2] - 1
	}
	return (cx*nl.nc[1]+cy)*nl.nc[2] + cz
}

// fillSlab generates the pairs whose home cell has x-index cx.
func (nl *neighborList) fillSlab(buf *pairList, cx int, pos []vec.V3, top *topology.Topology) {
	r2 := nl.rlist * nl.rlist
	for cy := 0; cy < nl.nc[1]; cy++ {
		for cz := 0; cz < nl.nc[2]; cz++ {
			c := (cx*nl.nc[1]+cy)*nl.nc[2] + cz
			// Pairs within the cell.
			for i := nl.heads[c]; i >= 0; i = nl.next[i] {
				for j := nl.next[i]; j >= 0; j = nl.next[j] {
					nl.tryPair(buf, pos, top, int(i), int(j), r2)
				}
			}
			// Pairs with the half shell.
			for _, d := range halfShellStencil {
				ox := (cx + d[0] + nl.nc[0]) % nl.nc[0]
				oy := (cy + d[1] + nl.nc[1]) % nl.nc[1]
				oz := (cz + d[2] + nl.nc[2]) % nl.nc[2]
				o := (ox*nl.nc[1]+oy)*nl.nc[2] + oz
				for i := nl.heads[c]; i >= 0; i = nl.next[i] {
					for j := nl.heads[o]; j >= 0; j = nl.next[j] {
						nl.tryPair(buf, pos, top, int(i), int(j), r2)
					}
				}
			}
		}
	}
}

func (nl *neighborList) tryPair(buf *pairList, pos []vec.V3, top *topology.Topology, i, j int, r2 float64) {
	if nl.im.minImage(pos[i], pos[j]).Norm2() > r2 || top.Excluded(i, j) {
		return
	}
	nl.packInto(buf, top, i, j)
}

// mergeSlabs concatenates the slab buffers and counting-sorts the result by
// ai, so the kernel walks each i atom's pairs consecutively. The sort is
// stable over the slab-order concatenation, keeping the final list fully
// deterministic.
func (nl *neighborList) mergeSlabs(nslabs, natoms int) {
	total := 0
	for s := 0; s < nslabs; s++ {
		total += nl.slabs[s].Len()
	}
	if cap(nl.counts) < natoms {
		nl.counts = make([]int32, natoms)
	}
	counts := nl.counts[:natoms]
	for i := range counts {
		counts[i] = 0
	}
	for s := 0; s < nslabs; s++ {
		for _, i := range nl.slabs[s].ai {
			counts[i]++
		}
	}
	// Prefix sum: counts[i] becomes the write offset of atom i's first pair.
	var off int32
	for i := range counts {
		c := counts[i]
		counts[i] = off
		off += c
	}
	nl.plist.resize(total)
	dst := &nl.plist
	for s := 0; s < nslabs; s++ {
		src := &nl.slabs[s]
		for k := range src.ai {
			i := src.ai[k]
			p := counts[i]
			counts[i]++
			dst.ai[p] = i
			dst.aj[p] = src.aj[k]
			dst.c6[p] = src.c6[k]
			dst.c12[p] = src.c12[k]
			dst.qqf[p] = src.qqf[k]
		}
	}
}
