// Package repex implements the mathematics of temperature-ladder replica
// exchange (parallel tempering): ladder construction, Metropolis exchange
// acceptance between neighbouring temperatures, and walker statistics
// (per-pair acceptance rates and bottom↔top round trips).
//
// REMD is the second adaptive-sampling paradigm named by the roadmap,
// following Treikalis et al. (RepEx): N replicas of the same system run at
// a ladder of temperatures T_0 < T_1 < … < T_{N−1}; at segment boundaries
// neighbouring replicas attempt to exchange configurations with the
// Metropolis probability
//
//	P(i↔j) = min(1, exp[(β_i − β_j)(U_i − U_j)])   β = 1/(k_B·T)
//
// which preserves detailed balance in the product ensemble. High-T rungs
// cross barriers; exchanges percolate those crossings down to the rung of
// interest. The package is pure state + math, including the two exchange
// patterns as transport-free schedules (SweepPairs for the barriered sweep,
// Arrive for the barrier-free one): the distributed-systems side (one
// command per segment, the sync barrier, durability) lives in the repex
// controller, which internal/des runs over virtual time.
package repex

import (
	"fmt"
	"math"
)

// KB is the Boltzmann constant in kJ/(mol·K), matching internal/md units.
const KB = 0.0083144621

// Ladder returns n geometrically spaced temperatures from tMin to tMax
// inclusive. Geometric spacing keeps the overlap between neighbouring
// canonical energy distributions — and therefore the acceptance rate —
// roughly constant along the ladder, the standard REMD prescription.
func Ladder(tMin, tMax float64, n int) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("repex: ladder needs at least 2 rungs, got %d", n)
	}
	if tMin <= 0 || tMax <= tMin {
		return nil, fmt.Errorf("repex: ladder needs 0 < tMin < tMax, got [%g, %g]", tMin, tMax)
	}
	ratio := math.Pow(tMax/tMin, 1/float64(n-1))
	ts := make([]float64, n)
	t := tMin
	for i := range ts {
		ts[i] = t
		t *= ratio
	}
	ts[n-1] = tMax // exact endpoint, no accumulated rounding
	return ts, nil
}

// SwapProb returns the Metropolis probability of exchanging the
// configurations of two replicas: one at temperature ti with potential
// energy ui, the other at tj with uj.
func SwapProb(ti, ui, tj, uj float64) float64 {
	delta := (1/(KB*ti) - 1/(KB*tj)) * (ui - uj)
	if delta >= 0 {
		return 1
	}
	return math.Exp(delta)
}

// Accept decides one exchange attempt: draw must be uniform in [0,1).
func Accept(ti, ui, tj, uj, draw float64) bool {
	return draw < SwapProb(ti, ui, tj, uj)
}

// SweepPairs returns the neighbour pairs attempted in one synchronous
// sweep over an n-rung ladder, as indices of the lower rung: even sweeps
// attempt (0,1),(2,3),…; odd sweeps attempt (1,2),(3,4),…. Alternating
// parity lets a configuration traverse the whole ladder across sweeps
// while keeping each sweep's attempts disjoint.
func SweepPairs(n int, odd bool) []int {
	var pairs []int
	start := 0
	if odd {
		start = 1
	}
	for i := start; i+1 < n; i += 2 {
		pairs = append(pairs, i)
	}
	return pairs
}

// Stats tracks exchange statistics for an n-rung ladder. All fields are
// exported and gob-encodable: the controller saves them as they are and
// clients decode them from ProjectStatus.Detail.
//
// Round trips follow walkers — configurations, identified by the rung they
// started on — as exchanges move them between rungs. A walker completes a
// round trip when it returns to rung 0 after having visited rung n−1; the
// round-trip rate is the standard measure of how well the ladder actually
// mixes (per-pair acceptance alone can look healthy while walkers stall).
type Stats struct {
	// Attempts and Accepts count exchange attempts per neighbour pair;
	// index i is the pair (i, i+1).
	Attempts []uint64
	Accepts  []uint64
	// WalkerAt[r] is the walker whose configuration currently sits at rung
	// r. Initially WalkerAt[r] = r.
	WalkerAt []int
	// Heading[w] records walker w's last ladder extreme: +1 after rung 0
	// (heading up), −1 after rung n−1 (heading down), 0 before either.
	Heading []int8
	// RoundTrips counts completed bottom→top→bottom traversals over all
	// walkers.
	RoundTrips uint64
}

// NewStats returns zeroed statistics for an n-rung ladder.
func NewStats(n int) *Stats {
	s := &Stats{
		Attempts: make([]uint64, n-1),
		Accepts:  make([]uint64, n-1),
		WalkerAt: make([]int, n),
		Heading:  make([]int8, n),
	}
	for r := range s.WalkerAt {
		s.WalkerAt[r] = r
	}
	if n > 0 {
		s.Heading[s.WalkerAt[0]] = 1
		if n > 1 {
			s.Heading[s.WalkerAt[n-1]] = -1
		}
	}
	return s
}

// Rungs returns the ladder size the statistics were created for.
func (s *Stats) Rungs() int { return len(s.WalkerAt) }

// Record counts one exchange attempt between rungs (i, i+1) and, when it
// was accepted, swaps the walkers and updates round-trip tracking.
func (s *Stats) Record(i int, accepted bool) {
	s.Attempts[i]++
	if !accepted {
		return
	}
	s.Accepts[i]++
	s.WalkerAt[i], s.WalkerAt[i+1] = s.WalkerAt[i+1], s.WalkerAt[i]
	s.touch(i)
	s.touch(i + 1)
}

// touch updates walker heading (and the round-trip counter) after the
// walker at rung r moved there.
func (s *Stats) touch(r int) {
	w := s.WalkerAt[r]
	switch r {
	case 0:
		if s.Heading[w] == -1 {
			s.RoundTrips++
		}
		s.Heading[w] = 1
	case len(s.WalkerAt) - 1:
		s.Heading[w] = -1
	}
}

// Rate returns the acceptance rate of neighbour pair (i, i+1), or 0 before
// any attempt.
func (s *Stats) Rate(i int) float64 {
	if s.Attempts[i] == 0 {
		return 0
	}
	return float64(s.Accepts[i]) / float64(s.Attempts[i])
}

// TotalAccepts returns the number of accepted exchanges over all pairs.
func (s *Stats) TotalAccepts() uint64 {
	var n uint64
	for _, a := range s.Accepts {
		n += a
	}
	return n
}

// Rung is one ladder slot's state at its last segment boundary. The fields
// are exported and gob-encodable: the controller saves its rungs as they are.
type Rung struct {
	State     []byte  // boundary configuration, opaque here (nil before the first segment)
	Potential float64 // potential energy at the last boundary
	Segs      int     // completed segments
	Waiting   bool    // async: parked at a boundary, awaiting a partner
	Retired   bool    // async: all its segments done
}

// Exchange runs one Metropolis attempt between rungs i and i+1 and records
// it in stats. On acceptance the configurations (State and Potential) swap;
// the temperatures stay with the rungs. draw must be uniform in [0,1).
func Exchange(temps []float64, rungs []Rung, stats *Stats, i int, draw float64) bool {
	lo, hi := &rungs[i], &rungs[i+1]
	acc := Accept(temps[i], lo.Potential, temps[i+1], hi.Potential, draw)
	stats.Record(i, acc)
	if acc {
		lo.State, hi.State = hi.State, lo.State
		lo.Potential, hi.Potential = hi.Potential, lo.Potential
	}
	return acc
}

// Arrive is the asynchronous exchange pattern, free of any transport: rung r
// has just completed a segment (its Segs already counts it) of the segments
// each rung runs. It updates the Waiting and Retired marks and returns the
// lower rung of the neighbour pair that must now attempt an exchange (−1 for
// none) and the rungs whose next segment is to be dispatched after that
// attempt, in order. A rung that finds a neighbour waiting pairs with it; one
// that finds none waits while a neighbour can still arrive, and runs on alone
// when both have retired. A rung with all its segments done retires, which
// releases any neighbour left waiting for nobody.
func Arrive(rungs []Rung, r, segments int) (pair int, run []int) {
	if rungs[r].Segs >= segments {
		rungs[r].Retired = true
		for n := range rungs {
			if rungs[n].Waiting && !liveNeighbor(rungs, n) {
				rungs[n].Waiting = false
				run = append(run, n)
			}
		}
		return -1, run
	}
	partner := -1
	for _, n := range []int{r - 1, r + 1} {
		if n < 0 || n >= len(rungs) || !rungs[n].Waiting {
			continue
		}
		// Prefer the neighbour further behind (on a tie the lower rung, which
		// is looked at first): the ladder drains evenly and the choice is
		// deterministic in state, not arrival timing.
		if partner == -1 || rungs[n].Segs < rungs[partner].Segs {
			partner = n
		}
	}
	switch {
	case partner >= 0:
		rungs[partner].Waiting = false
		return min(r, partner), []int{r, partner}
	case liveNeighbor(rungs, r):
		rungs[r].Waiting = true
		return -1, nil
	}
	return -1, []int{r}
}

// liveNeighbor reports whether a neighbour of r can still reach a boundary.
func liveNeighbor(rungs []Rung, r int) bool {
	for _, n := range []int{r - 1, r + 1} {
		if n >= 0 && n < len(rungs) && !rungs[n].Retired {
			return true
		}
	}
	return false
}
