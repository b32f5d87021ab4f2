package md

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"math"

	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// checkpointVersion guards against decoding checkpoints from incompatible
// engine revisions; bump on any change to checkpointData.
// v2: added the neighbour-rebuild reference state (NbrRef, SinceRebuild) so
// displacement-triggered rebuilds resume on the exact schedule of the
// original run.
const checkpointVersion = 2

// checkpointData is the serialised simulation state. Positions and
// velocities plus the RNG and thermostat state are sufficient to continue
// bit-for-bit; forces are recomputed on resume. NbrRef carries the positions
// at the last neighbour rebuild: resuming rebuilds the pair list from those
// (not the current) coordinates, so the resumed worker's list — and with it
// every subsequent displacement trigger — is bitwise identical to the
// original's.
type checkpointData struct {
	Version      int
	Step         int64
	Time         float64
	Pos          []vec.V3
	Vel          []vec.V3
	Rng          []byte
	XiNH         float64
	NbrRef       []vec.V3
	SinceRebuild int
}

// Checkpoint serialises the full dynamic state of the simulation. The
// topology and Config are deliberately not included: they travel with the
// command definition, so a different worker can resume the run from just
// (command spec, checkpoint) — the hand-off described in the paper's §2.3.
func (s *Sim) Checkpoint() ([]byte, error) {
	rstate, err := s.rand.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("md: serialising rng: %w", err)
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	err = enc.Encode(checkpointData{
		Version:      checkpointVersion,
		Step:         s.step,
		Time:         s.time,
		Pos:          s.pos,
		Vel:          s.vel,
		Rng:          rstate,
		XiNH:         s.xiNH,
		NbrRef:       s.nbrRef,
		SinceRebuild: s.sinceRebuild,
	})
	if err != nil {
		return nil, fmt.Errorf("md: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// Resume reconstructs a simulation from a system definition, a config, and a
// checkpoint previously produced by Checkpoint. The system's initial
// positions are ignored in favour of the checkpointed state, which must
// match the system's atom count and hold no NaN or infinity, in its
// coordinates or its Nosé–Hoover variable.
func Resume(sys *topology.System, cfg Config, checkpoint []byte) (*Sim, error) {
	var data checkpointData
	if err := gob.NewDecoder(bytes.NewReader(checkpoint)).Decode(&data); err != nil {
		return nil, fmt.Errorf("md: decoding checkpoint: %w", err)
	}
	if data.Version != checkpointVersion {
		return nil, fmt.Errorf("md: checkpoint version %d, engine expects %d", data.Version, checkpointVersion)
	}
	if n := sys.Top.NAtoms(); len(data.Pos) != n || len(data.Vel) != n || len(data.NbrRef) != n {
		return nil, fmt.Errorf("md: checkpoint has %d atoms, system has %d", len(data.Pos), n)
	}
	if err := cmp.Or(checkFinite("checkpoint position", data.Pos), checkFinite("checkpoint velocity", data.Vel),
		checkFinite("checkpoint rebuild reference", data.NbrRef)); err != nil {
		return nil, err
	}
	if math.IsNaN(data.XiNH) || math.IsInf(data.XiNH, 0) {
		return nil, fmt.Errorf("md: checkpoint Nosé–Hoover variable XiNH is %v", data.XiNH)
	}
	s, err := New(sys, cfg)
	if err != nil {
		return nil, err
	}
	for i := range s.pos {
		s.pos[i] = s.box.Wrap(data.Pos[i])
		s.nbrRef[i] = s.box.Wrap(data.NbrRef[i])
	}
	copy(s.vel, data.Vel)
	s.step = data.Step
	s.time = data.Time
	s.xiNH = data.XiNH
	if err := s.rand.UnmarshalBinary(data.Rng); err != nil {
		s.Close()
		return nil, fmt.Errorf("md: restoring rng: %w", err)
	}
	// Rebuild the pair list from the checkpointed rebuild-reference
	// positions, then evaluate forces at the current ones — exactly the
	// Verlet-list state the original run was in when it checkpointed.
	s.nbl.rebuildWith(s.nbrRef, s.top, s.cfg.Shards)
	s.sinceRebuild = data.SinceRebuild
	s.computeForces()
	return s, nil
}
