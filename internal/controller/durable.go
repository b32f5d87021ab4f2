package controller

import (
	"fmt"
	"time"

	"copernicus/internal/landscape"
	"copernicus/internal/msm"
	"copernicus/internal/repex"
	"copernicus/internal/rng"
	"copernicus/internal/wire"
)

// Durable is implemented by controllers whose in-memory state can be
// captured into a server snapshot and restored after a restart. SaveState
// is called with the project lock held (handlers are not running); the
// returned blob must contain everything needed to resume — including RNG
// state, so the command stream after recovery matches the one an
// uninterrupted run would have produced. RestoreState is called on a fresh
// instance instead of Start. Both bundled controllers implement it; a
// controller that does not is rebuilt by replaying its full WAL history.
type Durable interface {
	SaveState() ([]byte, error)
	RestoreState(data []byte) error
}

// msmTrajState mirrors msmTraj for gob.
type msmTrajState struct {
	ID      string
	BornGen int
	Times   []float64
	Frames  [][]float64
	RMSD    []float64
	Current []float64
	Alive   bool
	GenMin  []float64
}

// msmState mirrors MSMController's resumable fields for gob.
type msmState struct {
	P                  MSMParams
	Rand               []byte
	Gen                int
	SegDone            int
	InFlight           map[string]string
	Trajs              []msmTrajState // in c.order order
	NextTraj           int
	NextCmd            int
	MinRMSD            float64
	FirstFoldedGen     int
	FirstNearNativeGen int
	Stats              []GenerationStats
	SegTarget          int
	// Streaming-mode state. All fields decode as zero values from
	// pre-streaming snapshots (Stream stays nil → batch mode).
	Stream      *msm.StreamState
	CmdStreamed map[string]int
	CmdBase     map[string]float64
	LastPops    []float64
	ConvOK      int
	Converged   bool
}

// SaveState implements Durable.
func (c *MSMController) SaveState() ([]byte, error) {
	randState, err := c.rand.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("msm controller: rng state: %w", err)
	}
	st := msmState{
		P:                  c.p,
		Rand:               randState,
		Gen:                c.gen,
		SegDone:            c.segDone,
		InFlight:           c.inFlight,
		NextTraj:           c.nextTraj,
		NextCmd:            c.nextCmd,
		MinRMSD:            c.minRMSD,
		FirstFoldedGen:     c.firstFoldedGen,
		FirstNearNativeGen: c.firstNearNativeGen,
		Stats:              c.stats,
		SegTarget:          c.segTarget,
		CmdStreamed:        c.cmdStreamed,
		CmdBase:            c.cmdBase,
		LastPops:           c.lastPops,
		ConvOK:             c.convOK,
		Converged:          c.converged,
	}
	if c.stream != nil {
		ss := c.stream.State()
		st.Stream = &ss
	}
	for _, id := range c.order {
		tr := c.trajs[id]
		st.Trajs = append(st.Trajs, msmTrajState{
			ID: tr.id, BornGen: tr.bornGen, Times: tr.times, Frames: tr.frames,
			RMSD: tr.rmsd, Current: tr.current, Alive: tr.alive, GenMin: tr.genMin,
		})
	}
	return wire.Marshal(&st)
}

// RestoreState implements Durable: the model is rebuilt from the saved
// parameters, everything else resumes exactly where SaveState left it.
func (c *MSMController) RestoreState(data []byte) error {
	var st msmState
	if err := wire.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("msm controller: decoding state: %w", err)
	}
	model, err := landscape.New(st.P.Landscape)
	if err != nil {
		return fmt.Errorf("msm controller: rebuilding landscape: %w", err)
	}
	c.p = st.P
	c.model = model
	c.rand = rng.New(0)
	if err := c.rand.UnmarshalBinary(st.Rand); err != nil {
		return fmt.Errorf("msm controller: rng state: %w", err)
	}
	c.gen = st.Gen
	c.segDone = st.SegDone
	c.inFlight = st.InFlight
	if c.inFlight == nil {
		c.inFlight = make(map[string]string)
	}
	c.trajs = make(map[string]*msmTraj, len(st.Trajs))
	c.order = c.order[:0]
	c.points.Reset() // derived from the frames below at the next barrier
	c.gathered = 0
	for _, ts := range st.Trajs {
		c.trajs[ts.ID] = &msmTraj{
			id: ts.ID, bornGen: ts.BornGen, times: ts.Times, frames: ts.Frames,
			rmsd: ts.RMSD, current: ts.Current, alive: ts.Alive, genMin: ts.GenMin,
		}
		c.order = append(c.order, ts.ID)
	}
	c.nextTraj = st.NextTraj
	c.nextCmd = st.NextCmd
	c.minRMSD = st.MinRMSD
	c.firstFoldedGen = st.FirstFoldedGen
	c.firstNearNativeGen = st.FirstNearNativeGen
	c.stats = st.Stats
	c.segTarget = st.SegTarget
	if st.Stream != nil {
		stream, err := msm.RestoreStream(*st.Stream)
		if err != nil {
			return fmt.Errorf("msm controller: stream state: %w", err)
		}
		c.stream = stream
		c.cmdStreamed = st.CmdStreamed
		if c.cmdStreamed == nil {
			c.cmdStreamed = make(map[string]int)
		}
		c.cmdBase = st.CmdBase
		if c.cmdBase == nil {
			c.cmdBase = make(map[string]float64)
		}
		c.lastPops = st.LastPops
		c.convOK = st.ConvOK
		c.converged = st.Converged
	}
	c.genStart = time.Now() // wall-clock restarts; durations exclude downtime
	return nil
}

// barWindowState mirrors barWindow for gob.
type barWindowState struct {
	LambdaFrom, LambdaTo float64
	Forward, Reverse     []float64
}

// barState mirrors BARController's resumable fields for gob.
type barState struct {
	P        BARParams
	Rand     []byte
	Windows  []barWindowState
	InFlight map[string]int
	Round    int
	NextCmd  int
	Samples  int
}

// SaveState implements Durable.
func (c *BARController) SaveState() ([]byte, error) {
	randState, err := c.rand.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("bar controller: rng state: %w", err)
	}
	st := barState{
		P: c.p, Rand: randState, InFlight: c.inFlight,
		Round: c.round, NextCmd: c.nextCmd, Samples: c.samples,
	}
	for _, w := range c.windows {
		st.Windows = append(st.Windows, barWindowState{
			LambdaFrom: w.lambdaFrom, LambdaTo: w.lambdaTo,
			Forward: w.forward, Reverse: w.reverse,
		})
	}
	return wire.Marshal(&st)
}

// repexRungState mirrors repexRung for gob.
type repexRungState struct {
	State     []byte
	Potential float64
	Segs      int
	Waiting   bool
	Retired   bool
}

// repexState mirrors RepexController's resumable fields for gob. The
// exchange ladder — temperatures, RNG, acceptance statistics, walker
// positions, boundary states — must survive failover bitwise so a
// promoted standby continues the exact exchange stream the primary would
// have produced.
type repexState struct {
	P        RepexParams
	Rand     []byte
	Temps    []float64
	Rungs    []repexRungState
	Stats    repex.Stats
	InFlight map[string]int
	Epoch    int
	GangSeq  int
	NextCmd  int
	SegsRun  int
}

// SaveState implements Durable.
func (c *RepexController) SaveState() ([]byte, error) {
	randState, err := c.rand.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("repex controller: rng state: %w", err)
	}
	st := repexState{
		P:        c.p,
		Rand:     randState,
		Temps:    c.temps,
		Stats:    *c.stats,
		InFlight: c.inFlight,
		Epoch:    c.epoch,
		GangSeq:  c.gangSeq,
		NextCmd:  c.nextCmd,
		SegsRun:  c.segsRun,
	}
	for _, rung := range c.rungs {
		st.Rungs = append(st.Rungs, repexRungState{
			State: rung.state, Potential: rung.potential,
			Segs: rung.segs, Waiting: rung.waiting, Retired: rung.retired,
		})
	}
	return wire.Marshal(&st)
}

// RestoreState implements Durable.
func (c *RepexController) RestoreState(data []byte) error {
	var st repexState
	if err := wire.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("repex controller: decoding state: %w", err)
	}
	c.p = st.P
	c.rand = rng.New(0)
	if err := c.rand.UnmarshalBinary(st.Rand); err != nil {
		return fmt.Errorf("repex controller: rng state: %w", err)
	}
	c.temps = st.Temps
	stats := st.Stats
	c.stats = &stats
	c.rungs = c.rungs[:0]
	for _, rs := range st.Rungs {
		c.rungs = append(c.rungs, &repexRung{
			state: rs.State, potential: rs.Potential,
			segs: rs.Segs, waiting: rs.Waiting, retired: rs.Retired,
		})
	}
	c.inFlight = st.InFlight
	if c.inFlight == nil {
		c.inFlight = make(map[string]int)
	}
	c.epoch = st.Epoch
	c.gangSeq = st.GangSeq
	c.nextCmd = st.NextCmd
	c.segsRun = st.SegsRun
	return nil
}

// RestoreState implements Durable.
func (c *BARController) RestoreState(data []byte) error {
	var st barState
	if err := wire.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("bar controller: decoding state: %w", err)
	}
	c.p = st.P
	c.rand = rng.New(0)
	if err := c.rand.UnmarshalBinary(st.Rand); err != nil {
		return fmt.Errorf("bar controller: rng state: %w", err)
	}
	c.windows = c.windows[:0]
	for _, ws := range st.Windows {
		c.windows = append(c.windows, &barWindow{
			lambdaFrom: ws.LambdaFrom, lambdaTo: ws.LambdaTo,
			forward: ws.Forward, reverse: ws.Reverse,
		})
	}
	c.inFlight = st.InFlight
	if c.inFlight == nil {
		c.inFlight = make(map[string]int)
	}
	c.round = st.Round
	c.nextCmd = st.NextCmd
	c.samples = st.Samples
	return nil
}
