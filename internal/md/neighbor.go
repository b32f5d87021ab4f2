package md

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// pairList is the row-compressed pair list the non-bonded kernel iterates:
// row i's partners, every one of them above i, are aj[start[i]:start[i+1]],
// in the order the rebuild produced them. It stores 4 bytes a pair and no
// interaction parameters: the kernel reads each pair's LJ coefficients from
// the type table and its charge product from the charges, which the
// neighbour list caches once per topology.
type pairList struct {
	start []int32 // natoms+1 row offsets into aj
	aj    []int32
}

// Len returns the number of pairs.
func (pl *pairList) Len() int { return len(pl.aj) }

// rowOf returns the row holding pair k: the i with start[i] <= k <
// start[i+1]. For k = Len() it returns the row count.
func (pl *pairList) rowOf(k int) int {
	n := len(pl.start) - 1
	return sort.Search(n, func(i int) bool { return int(pl.start[i+1]) > k })
}

// resized returns s with exactly n entries, reusing its capacity. When it
// has to allocate it leaves a quarter of headroom, so a list whose length
// creeps up across rebuilds stops reallocating after the first few.
func resized(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/4)
	}
	return s[:n]
}

// reserved returns s emptied, with room for n entries (and resized's
// headroom), so appending up to that many allocates nothing.
func reserved(s []int32, n int) []int32 { return resized(s, n)[:0] }

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

// neighborList produces the row-compressed pair list consumed by the
// non-bonded kernel. Periodic boxes at least three listing radii wide use a
// linked-cell decomposition with cells at least rlist wide, its pair
// generation split over x-slabs of the grid. Smaller boxes and aperiodic
// systems (single molecules in vacuo) take an O(n²) sweep split over bands
// of rows. Both splits run on the command's rebuild workers.
//
// The generated list is deterministic and independent of the worker count:
// each slab or band fills its own buffer in the order a serial sweep would
// use, and the buffers are joined in slab or band order (for slabs, by a
// group-by-i counting sort).
type neighborList struct {
	box   vec.Box
	im    *imager
	rlist float64  // cutoff + skin
	plist pairList // output consumed by the kernel

	// parameter caches, filled once from the topology: each atom's LJ type
	// and charge, and the combined LJ coefficients of type pair (a, b) at
	// a·ntypes+b
	typ     []int32
	chg     []float64
	c6, c12 []float64
	ntypes  int

	// rebuild scratch, reused across rebuilds
	nc      [3]int
	heads   []int32
	next    []int32
	cellDim vec.V3
	// per-band partners j, or per-slab (i, j) pairs flattened two entries a
	// pair
	slabs [][]int32
	bands []int // row-band bounds: band b is rows [bands[b], bands[b+1])
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

// cacheAtomParams snapshots per-atom LJ type and charge, and the topology's
// LJ pair table, into flat arrays, so the kernel reads int32/float64 slices
// instead of Atom structs and topology methods.
func (nl *neighborList) cacheAtomParams(top *topology.Topology) {
	if len(nl.typ) == len(top.Atoms) {
		return
	}
	nl.typ = make([]int32, len(top.Atoms))
	nl.chg = make([]float64, len(top.Atoms))
	for i, a := range top.Atoms {
		nl.typ[i] = int32(a.Type)
		nl.chg[i] = a.Charge
	}
	nt := len(top.LJTypes)
	nl.ntypes = nt
	nl.c6 = make([]float64, nt*nt)
	nl.c12 = make([]float64, nt*nt)
	for a := 0; a < nt; a++ {
		for b := 0; b < nt; b++ {
			nl.c6[a*nt+b], nl.c12[a*nt+b] = top.LJPair(a, b)
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

// fillSlabs fills the buffers nl.slabs[0:n], buffer k by fill, on up to
// `workers` goroutines (the caller among them) that pull buffer indices from
// a shared cursor; it returns once all are full. Each buffer is first
// reserved for `per` entries. fill gets and returns the buffer by value, so
// it appends to a header on its own stack: appending through nl.slabs[k]
// itself would rewrite, on every pair, a cache line that neighbouring
// buffers' headers share.
func (nl *neighborList) fillSlabs(workers, n, per int, fill func(buf []int32, k int) []int32) {
	if len(nl.slabs) < n {
		nl.slabs = append(nl.slabs, make([][]int32, n-len(nl.slabs))...)
	}
	var cursor atomic.Int64
	work := func() {
		for {
			k := int(cursor.Add(1)) - 1
			if k >= n {
				return
			}
			nl.slabs[k] = fill(reserved(nl.slabs[k], per), k)
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

// rebuildAllPairs is the O(n²) sweep over every i < j, for boxes too small
// for the cell grid and for aperiodic systems. Row i holds the n−i−1
// candidates j > i; the rows are cut into bands of equal candidate count,
// each band fills its own buffer with its rows' partners and writes each
// row's count, and the buffers are concatenated in band order while a
// prefix sum turns the counts into row offsets. The list thus comes out in
// serial sweep order whatever the worker count.
func (nl *neighborList) rebuildAllPairs(pos []vec.V3, top *topology.Topology, workers int) {
	n := len(pos)
	pl := &nl.plist
	pl.start = resized(pl.start, n+1)
	candidates := n * (n - 1) / 2
	expected := nl.expectedPairs(n)
	if workers <= 1 || candidates < parallelMinCandidates {
		pl.aj = nl.fillRows(reserved(pl.aj, expected), pos, top, 0, n)
	} else {
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

		nl.fillSlabs(workers, nbands, expected/nbands, func(buf []int32, b int) []int32 {
			return nl.fillRows(buf, pos, top, nl.bands[b], nl.bands[b+1])
		})

		total := 0
		for _, buf := range nl.slabs[:nbands] {
			total += len(buf)
		}
		pl.aj = resized(pl.aj, total)
		off := 0
		for _, buf := range nl.slabs[:nbands] {
			off += copy(pl.aj[off:], buf)
		}
	}
	pl.start[0] = 0
	for i := 1; i <= n; i++ {
		pl.start[i] += pl.start[i-1]
	}
}

// fillRows appends the partners of rows [lo, hi) to aj in sweep order and
// writes row i's partner count to plist.start[i+1]. The distance test has no
// branch: every candidate j is written past the row's accepted partners,
// and the cursor advances by the sign bit of r² − d², clear exactly when
// d² ≤ r² (New, Resume and maybeRebuild keep d² finite). The quarter or so
// accepted then meet a cursor into row i's sorted exclusion list (the order
// BuildExclusions makes) that walks forward as j ascends.
func (nl *neighborList) fillRows(aj []int32, pos []vec.V3, top *topology.Topology, lo, hi int) []int32 {
	r2 := nl.rlist * nl.rlist
	counts := nl.plist.start[1:]
	for i := lo; i < hi; i++ {
		p, row := pos[i], len(aj)
		aj = slices.Grow(aj, len(pos)-i-1)[:row+len(pos)-i-1]
		w := row
		for k, q := range pos[i+1:] {
			aj[w] = int32(i + 1 + k)
			w += int(1 ^ math.Float64bits(r2-nl.im.minImage(p, q).Norm2())>>63)
		}
		var excl []int
		if i < len(top.Exclusions) {
			excl = top.Exclusions[i]
		}
		x, kept := 0, row
		for _, j := range aj[row:w] {
			for x < len(excl) && excl[x] < int(j) {
				x++
			}
			if x < len(excl) && excl[x] == int(j) {
				continue
			}
			aj[kept] = j
			kept++
		}
		aj = aj[:kept]
		counts[i] = int32(kept - row)
	}
	return aj
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
	nl.fillSlabs(workers, nslabs, 2*nl.expectedPairs(len(pos))/nslabs, func(buf []int32, cx int) []int32 {
		return nl.fillSlab(buf, cx, pos, top)
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

// fillSlab appends the pairs whose home cell has x-index cx to buf, as
// (i, j) entry pairs with i < j.
func (nl *neighborList) fillSlab(buf []int32, cx int, pos []vec.V3, top *topology.Topology) []int32 {
	r2 := nl.rlist * nl.rlist
	for cy := 0; cy < nl.nc[1]; cy++ {
		for cz := 0; cz < nl.nc[2]; cz++ {
			c := (cx*nl.nc[1]+cy)*nl.nc[2] + cz
			// Pairs within the cell.
			for i := nl.heads[c]; i >= 0; i = nl.next[i] {
				for j := nl.next[i]; j >= 0; j = nl.next[j] {
					buf = nl.tryPair(buf, pos, top, i, j, r2)
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
						buf = nl.tryPair(buf, pos, top, i, j, r2)
					}
				}
			}
		}
	}
	return buf
}

// tryPair appends (i, j), ordered i < j, to buf if the pair is within the
// listing radius and not excluded.
func (nl *neighborList) tryPair(buf []int32, pos []vec.V3, top *topology.Topology, i, j int32, r2 float64) []int32 {
	if nl.im.minImage(pos[i], pos[j]).Norm2() > r2 || top.Excluded(int(i), int(j)) {
		return buf
	}
	if i > j {
		i, j = j, i
	}
	return append(buf, i, j)
}

// mergeSlabs counting-sorts the slab buffers' pairs by i into the list, so
// the kernel walks each i atom's pairs as one row. The sort is stable over
// the slab-order concatenation, keeping the final list fully deterministic.
// It counts row i's pairs into start[i+2], so that the prefix sum leaves
// row i's first offset in start[i+1], the cursor the scatter advances to
// row i's end, which is row i+1's first offset.
func (nl *neighborList) mergeSlabs(nslabs, natoms int) {
	pl := &nl.plist
	start := resized(pl.start, natoms+2)
	clear(start)
	total := 0
	for _, buf := range nl.slabs[:nslabs] {
		total += len(buf) / 2
		for k := 0; k < len(buf); k += 2 {
			start[buf[k]+2]++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	aj := resized(pl.aj, total)
	for _, buf := range nl.slabs[:nslabs] {
		for k := 0; k < len(buf); k += 2 {
			c := &start[buf[k]+1]
			aj[*c] = buf[k+1]
			*c++
		}
	}
	pl.start, pl.aj = start[:natoms+1], aj
}
