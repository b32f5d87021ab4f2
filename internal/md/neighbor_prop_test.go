package md

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"copernicus/internal/rng"
	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// pair is a canonical (i<j) pair identity for set comparison.
type pair struct{ i, j int32 }

func pairSetOf(pl *pairList) map[pair]bool {
	set := make(map[pair]bool, pl.Len())
	for i := 0; i+1 < len(pl.start); i++ {
		for _, j := range pl.aj[pl.start[i]:pl.start[i+1]] {
			set[pair{int32(i), j}] = true
		}
	}
	return set
}

// referencePairs is the test oracle for every rebuild path: a plain serial
// sweep over all i < j that tests the exclusion first and the full
// vec.Box.MinImage norm second, recording row i's offset before its
// partners. It shares no code with the neighbour list.
func referencePairs(box vec.Box, pos []vec.V3, top *topology.Topology, rlist float64) pairList {
	var ref pairList
	for i := range pos {
		ref.start = append(ref.start, int32(len(ref.aj)))
		for j := i + 1; j < len(pos); j++ {
			if top.Excluded(i, j) || box.MinImage(pos[i], pos[j]).Norm2() > rlist*rlist {
				continue
			}
			ref.aj = append(ref.aj, int32(j))
		}
	}
	ref.start = append(ref.start, int32(len(ref.aj)))
	return ref
}

// samePairList fails t unless got is want entry for entry: the same row
// offsets and the same partners in the same order.
func samePairList(t *testing.T, label string, got, want *pairList) {
	t.Helper()
	if len(got.start) != len(want.start) {
		t.Fatalf("%s: %d row offsets, reference has %d", label, len(got.start), len(want.start))
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d pairs, reference has %d", label, got.Len(), want.Len())
	}
	for i := range want.start {
		if got.start[i] != want.start[i] {
			t.Fatalf("%s: row %d starts at %d, reference at %d", label, i, got.start[i], want.start[i])
		}
	}
	for k := range want.aj {
		if got.aj[k] != want.aj[k] {
			t.Fatalf("%s: entry %d (row %d) is %d, reference has %d", label, k, want.rowOf(k), got.aj[k], want.aj[k])
		}
	}
}

// shake moves every atom off its builder's regular arrangement.
func shake(sys *topology.System, r *rng.Source, sd float64) {
	for i := range sys.Pos {
		d := vec.New(r.Norm(), r.Norm(), r.Norm()).Scale(sd)
		sys.Pos[i] = sys.Box.Wrap(sys.Pos[i].Add(d))
	}
}

// TestAllPairsRebuildMatchesReference checks the row-band all-pairs sweep
// against the reference list entry for entry — row offsets, partners and
// their order — for every worker count, on md_ensemble's box (192 waters at
// rlist 0.68, edge under three listing radii), random periodic boxes too
// small for the cell grid, and an aperiodic peptide. Each list is rebuilt
// twice, so reused band buffers are covered as well as fresh ones. One box
// is exactly two listing radii wide, and one pair sits exactly at the
// listing radius.
func TestAllPairsRebuildMatchesReference(t *testing.T) {
	type system struct {
		name  string
		sys   *topology.System
		rlist float64
	}
	water, err := topology.WaterBox(192, 1)
	if err != nil {
		t.Fatal(err)
	}
	peptide, err := topology.Peptide(240, 3)
	if err != nil {
		t.Fatal(err)
	}
	systems := []system{{"md_ensemble", water, 0.68}, {"peptide", peptide, 1.2}}
	r := rng.New(7)
	for k := 0; k < 6; k++ {
		var sys *topology.System
		if k%2 == 1 {
			sys, err = topology.WaterBox(64+r.Intn(160), r.Uint64())
		} else {
			sys, err = topology.LJFluid(100+r.Intn(300), 5+5*r.Float64(), r.Uint64())
		}
		if err != nil {
			t.Fatal(err)
		}
		shake(sys, r, 0.05)
		// Between a third and a half of the edge: too small for the cell
		// grid, and no pair has a second image within range.
		rlist := sys.Box.L.X * (0.34 + 0.15*r.Float64())
		systems = append(systems, system{fmt.Sprintf("random%d", k), sys, rlist})
	}
	// A box of exactly two listing radii, the smallest New accepts: pairs
	// half a box apart on one axis sit at the listing radius itself.
	edge, err := topology.WaterBox(128, 5)
	if err != nil {
		t.Fatal(err)
	}
	shake(edge, r, 0.05)
	systems = append(systems, system{"two-rlist", edge, edge.Box.L.X / 2})

	for _, c := range systems {
		want := referencePairs(c.sys.Box, c.sys.Pos, c.sys.Top, c.rlist)
		if want.Len() == 0 {
			t.Fatalf("%s: reference list is empty", c.name)
		}
		for _, workers := range []int{1, 2, 5} {
			nl := newNeighborList(c.sys.Box, c.rlist)
			if nl.periodic() && nl.gridFits() {
				t.Fatalf("%s: box fits the cell grid; the sweep would not be tested", c.name)
			}
			for round := 0; round < 2; round++ {
				nl.rebuildWith(c.sys.Pos, c.sys.Top, workers)
				samePairList(t, fmt.Sprintf("%s workers %d round %d", c.name, workers, round), &nl.plist, &want)
			}
		}
	}

	// Two atoms exactly the listing radius apart, d² = r² in floats: the
	// sweep's branch-free test, the cell grid and the reference all list
	// the pair. The box is 3.2 listing radii wide, so it fits the grid and
	// the sweep is called directly.
	pair, err := topology.LJFluid(2, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	pair.Box = vec.NewCubicBox(2)
	pair.Pos = []vec.V3{vec.New(0, 0, 0), vec.New(0.625, 0, 0)}
	rlist := 0.5 + 0.125
	want := referencePairs(pair.Box, pair.Pos, pair.Top, rlist)
	if want.Len() != 1 {
		t.Fatalf("at rlist: reference lists %d pairs, want 1", want.Len())
	}
	nl := newNeighborList(pair.Box, rlist)
	if !nl.gridFits() {
		t.Fatal("at rlist: box does not fit the cell grid")
	}
	nl.rebuildWith(pair.Pos, pair.Top, 1)
	samePairList(t, "at rlist, cell grid", &nl.plist, &want)
	nl.rebuildAllPairs(pair.Pos, pair.Top, 1)
	samePairList(t, "at rlist, sweep", &nl.plist, &want)
}

// TestRebuildAllocatesNothing checks, on the cell path and on the band path,
// serial and fanned out, that the first rebuild presizes its pair buffers
// from the box density instead of growing them append by append, and that
// rebuilding again at fixed positions allocates (next to) nothing.
func TestRebuildAllocatesNothing(t *testing.T) {
	cellSys, err := topology.LJFluid(512, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	bandSys, err := topology.WaterBox(192, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sys   *topology.System
		rlist float64
		cells bool
	}{{"cells", cellSys, 1.0, true}, {"bands", bandSys, 0.68, false}} {
		for _, workers := range []int{1, 2} {
			nl := newNeighborList(c.sys.Box, c.rlist)
			if got := nl.periodic() && nl.gridFits(); got != c.cells {
				t.Fatalf("%s: cell grid fits = %v", c.name, got)
			}
			nl.cacheAtomParams(c.sys.Top)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			nl.rebuildWith(c.sys.Pos, c.sys.Top, workers)
			runtime.ReadMemStats(&after)
			// An array or two per buffer, allocated once each, and a few
			// closures; growing from empty by append takes hundreds.
			if n := after.Mallocs - before.Mallocs; n > 100 {
				t.Errorf("%s workers %d: first rebuild made %d allocations", c.name, workers, n)
			}
			const rounds = 10
			runtime.ReadMemStats(&before)
			for k := 0; k < rounds; k++ {
				nl.rebuildWith(c.sys.Pos, c.sys.Top, workers)
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 1024 {
				t.Errorf("%s workers %d: %d B allocated per rebuild at fixed positions", c.name, workers, per)
			}
		}
	}
}

// TestPairListPropertyRandomBoxes checks, across randomly drawn periodic
// systems and listing radii, that the parallel cell-grid rebuild produces
// exactly the reference sweep's pair set for every worker count, the serial
// list entry for entry, and a well-formed row layout: offsets from 0 to the
// pair count, never falling, and every partner of row i above i. The last
// four systems are large enough for the slab fan-out.
func TestPairListPropertyRandomBoxes(t *testing.T) {
	r := rng.New(42)
	fannedOut := 0
	for iter := 0; iter < 16; iter++ {
		var sys *topology.System
		var err error
		switch {
		case iter >= 12:
			// Larger fluids, above the slab fan-out threshold.
			sys, err = topology.LJFluid(400+r.Intn(400), 5+5*r.Float64(), r.Uint64())
		case iter%4 == 3:
			// Water boxes cover exclusions and charges.
			sys, err = topology.WaterBox(27+r.Intn(64), r.Uint64())
		default:
			sys, err = topology.LJFluid(64+r.Intn(200), 5+5*r.Float64(), r.Uint64())
		}
		if err != nil {
			t.Fatalf("iter %d: building system: %v", iter, err)
		}
		shake(sys, r, 0.05)
		// Draw a listing radius, clamped so the cell grid fits (≥3 cells per
		// axis) — otherwise the rebuild would take the all-pairs sweep, which
		// TestAllPairsRebuildMatchesReference covers.
		rlist := 0.55 + 0.5*r.Float64()
		if max := sys.Box.L.X / 3; rlist > max {
			rlist = max
		}

		ref := referencePairs(sys.Box, sys.Pos, sys.Top, rlist)
		want := pairSetOf(&ref)

		var serial pairList
		for _, workers := range []int{1, 2, 5} {
			nl := newNeighborList(sys.Box, rlist)
			nl.rebuildWith(sys.Pos, sys.Top, workers)
			if workers == 1 {
				serial = nl.plist
				if nl.gridCandidates(len(sys.Pos)) >= parallelMinCandidates {
					fannedOut++
				}
			} else {
				samePairList(t, fmt.Sprintf("iter %d workers %d", iter, workers), &nl.plist, &serial)
			}
			got := pairSetOf(&nl.plist)
			if len(got) != nl.plist.Len() {
				t.Fatalf("iter %d workers %d: duplicate pairs in packed list", iter, workers)
			}
			if len(got) != len(want) {
				t.Fatalf("iter %d workers %d: %d pairs from cell grid, %d from O(n²)",
					iter, workers, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("iter %d workers %d: cell grid missing pair (%d,%d)", iter, workers, p.i, p.j)
				}
			}
			pl := &nl.plist
			if len(pl.start) != len(sys.Pos)+1 || pl.start[0] != 0 || int(pl.start[len(sys.Pos)]) != pl.Len() {
				t.Fatalf("iter %d workers %d: %d row offsets from %d to %d for %d atoms and %d pairs",
					iter, workers, len(pl.start), pl.start[0], pl.start[len(pl.start)-1], len(sys.Pos), pl.Len())
			}
			for i := range sys.Pos {
				if pl.start[i+1] < pl.start[i] {
					t.Fatalf("iter %d workers %d: row %d ends at %d before it starts at %d", iter, workers, i, pl.start[i+1], pl.start[i])
				}
				for _, j := range pl.aj[pl.start[i]:pl.start[i+1]] {
					if int(j) <= i {
						t.Fatalf("iter %d workers %d: row %d holds partner %d", iter, workers, i, j)
					}
				}
			}
		}
	}
	if fannedOut < 4 {
		t.Errorf("only %d of 16 systems above parallelMinCandidates: the slab fan-out is barely exercised", fannedOut)
	}
}

// TestNVEDriftRebuildPolicies is the energy-conservation regression for the
// displacement-triggered rebuild policy: over 10k NVE steps the drift with
// displacement-triggered rebuilds (a high ceiling, so the skin criterion is
// the active trigger) must stay within 2× of the fixed-cadence baseline —
// while performing far fewer rebuilds.
func TestNVEDriftRebuildPolicies(t *testing.T) {
	run := func(mut func(*Config)) (drift float64, rebuilds int64) {
		t.Helper()
		sys := smallFluid(t, 64)
		cfg := nveConfig()
		cfg.Dt = 0.001
		mut(&cfg)
		s, err := New(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Step(200); err != nil {
			t.Fatal(err)
		}
		e0 := s.Energies().Total()
		if err := s.Step(10000); err != nil {
			t.Fatal(err)
		}
		e1 := s.Energies().Total()
		return math.Abs(e1-e0) / math.Abs(e0), s.Rebuilds()
	}

	driftFixed, rebuildsFixed := run(func(c *Config) {
		c.FixedCadenceRebuild = true
		c.NeighborEvery = 10
	})
	driftDisp, rebuildsDisp := run(func(c *Config) {
		c.NeighborEvery = 200 // ceiling only; displacement is the live trigger
	})

	t.Logf("fixed cadence: drift %.3g%% over %d rebuilds; displacement: drift %.3g%% over %d rebuilds",
		driftFixed*100, rebuildsFixed, driftDisp*100, rebuildsDisp)
	if driftDisp > 2*driftFixed+1e-3 {
		t.Errorf("displacement-policy drift %.3g exceeds 2× fixed-cadence drift %.3g", driftDisp, driftFixed)
	}
	if rebuildsDisp >= rebuildsFixed/2 {
		t.Errorf("displacement policy rebuilt %d times vs %d fixed-cadence — trigger not saving rebuilds",
			rebuildsDisp, rebuildsFixed)
	}
}

// TestShardedForcesMatchSerialWaterBox extends the serial/sharded equivalence
// check to a system with every interaction type live — LJ, Coulomb, bonds and
// angles — so the bonded shard partition and the parallel reduction are both
// exercised above the parallelMinWork threshold.
func TestShardedForcesMatchSerialWaterBox(t *testing.T) {
	build := func(shards int) *Sim {
		t.Helper()
		sys, err := topology.WaterBox(300, 9)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Shards = shards
		s, err := New(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	serial := build(1)
	sharded := build(4)
	fs, fp := serial.Forces(), sharded.Forces()
	for i := range fs {
		if fs[i].Sub(fp[i]).Norm() > 1e-9 {
			t.Fatalf("atom %d force mismatch: serial %v sharded %v", i, fs[i], fp[i])
		}
	}
	es, ep := serial.Energies(), sharded.Energies()
	for _, pair := range [][2]float64{
		{es.LJ, ep.LJ}, {es.Coulomb, ep.Coulomb},
		{es.Bond, ep.Bond}, {es.Angle, ep.Angle}, {es.Dihedral, ep.Dihedral},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9*(1+math.Abs(pair[0])) {
			t.Fatalf("energy term mismatch: serial %v sharded %v", es, ep)
		}
	}
}
