// Package engines defines the simulation "executables" workers install —
// the pieces that play Gromacs' role in the paper's architecture — together
// with the payload structures controllers use to parameterise them.
//
// Three engines ship with the reproduction:
//
//   - "landscape-md": Brownian dynamics on the villin folding surrogate
//     (internal/landscape), the workhorse of the MSM experiments.
//   - "mdrun": the classical MD engine (internal/md) on LJ-fluid, water-box
//     or polymer systems, with full checkpoint/resume support.
//   - "bar-sample": work-value sampling for the BAR free-energy plugin.
//
// An engine checkpoints through the progress callback so the control plane
// can hand a half-finished command to another worker after a failure.
//
// Every payload, output and checkpoint type is registered with the binary
// codec of internal/wire, so wire.Marshal writes it from its declaration:
// fields are only ever appended (wire's codec.go has the rule). Bytes written
// before the codec reached these types are gob, which wire.Unmarshal still
// reads.
package engines

import (
	"context"
	"fmt"

	"copernicus/internal/landscape"
	"copernicus/internal/md"
	"copernicus/internal/rng"
	"copernicus/internal/topology"
	"copernicus/internal/wire"
)

func init() {
	wire.Register(LandscapePayload{}, LandscapeOutput{}, LandscapeCheckpoint{}, MDPayload{}, MDOutput{},
		BARPayload{}, BAROutput{}, RepexMDPayload{}, RepexMDOutput{})
}

// Engine executes commands of one type. Implementations must be safe for
// concurrent Run calls (workers run several commands at once).
type Engine interface {
	// Name is the executable name matched against CommandSpec.Type.
	Name() string
	// Run executes the command with the given core assignment. It may call
	// progress with intermediate checkpoints. A non-nil spec.Checkpoint
	// resumes a previous partial execution.
	Run(ctx context.Context, spec wire.CommandSpec, cores int, progress func(checkpoint []byte)) (output []byte, err error)
}

// Streamer is an optional Engine extension: engines that can flush
// trajectory frames to the project server while a command runs implement
// it. Workers call RunStream instead of Run when the engine supports it;
// whether anything is actually emitted is decided by the command's payload
// (the landscape engine streams only when StreamEveryNs > 0), so the
// controller stays in charge of the flush cadence. The project server
// answers every chunk "ignored": the final output must carry the complete
// trajectory, which is what the controller reads. Emission stays only while
// the benchmark harness counts chunks per command. emit must be called
// synchronously from the run goroutine.
type Streamer interface {
	Engine
	RunStream(ctx context.Context, spec wire.CommandSpec, cores int,
		progress func(checkpoint []byte), emit func(chunk *wire.FrameChunk)) (output []byte, err error)
}

// --- landscape engine ---

// LandscapeName is the executable name of the folding-surrogate engine.
const LandscapeName = "landscape-md"

// LandscapePayload parameterises one landscape trajectory segment.
type LandscapePayload struct {
	Params     landscape.Params
	Start      []float64 // starting conformation
	DurationNs float64
	FrameNs    float64 // frame recording interval
	Seed       uint64
	// StreamEveryNs, when positive, makes the engine flush accumulated
	// frames to the project server at this simulated-time interval, which
	// the server ignores (see Streamer). 0 disables the flush; decodes as 0
	// from pre-stream frames.
	StreamEveryNs float64
}

// LandscapeOutput is the engine's result: the recorded trajectory and its
// RMSD-to-native series.
type LandscapeOutput struct {
	Times  []float64
	Frames [][]float64
	RMSD   []float64
}

// LandscapeCheckpoint is the mid-command resume state.
type LandscapeCheckpoint struct {
	X        []float64
	DoneNs   float64
	RngState []byte
	// Accumulated frames so far.
	Times  []float64
	Frames [][]float64
}

// LandscapeEngine runs folding-surrogate segments.
type LandscapeEngine struct {
	// CheckpointEveryNs inserts progress checkpoints at this interval;
	// 0 disables intermediate checkpoints.
	CheckpointEveryNs float64
}

// Name implements Engine.
func (e *LandscapeEngine) Name() string { return LandscapeName }

// Run implements Engine.
func (e *LandscapeEngine) Run(ctx context.Context, spec wire.CommandSpec, cores int, progress func([]byte)) ([]byte, error) {
	return e.RunStream(ctx, spec, cores, progress, nil)
}

// RunStream implements Streamer: identical to Run, but when the payload
// sets StreamEveryNs (and emit is non-nil) the frames accumulated over each
// flush interval are emitted as a FrameChunk before the run completes. On a
// checkpoint resume, emission restarts after the checkpointed frames, so
// frames the previous worker streamed beyond the checkpoint are emitted
// again.
func (e *LandscapeEngine) RunStream(ctx context.Context, spec wire.CommandSpec, cores int,
	progress func([]byte), emit func(*wire.FrameChunk)) ([]byte, error) {
	var p LandscapePayload
	if err := wire.Unmarshal(spec.Payload, &p); err != nil {
		return nil, fmt.Errorf("engines: landscape payload: %w", err)
	}
	model, err := landscape.New(p.Params)
	if err != nil {
		return nil, err
	}
	if p.DurationNs <= 0 || p.FrameNs <= 0 {
		return nil, fmt.Errorf("engines: landscape duration and frame interval must be positive")
	}

	// Either a fresh start or a checkpoint resume.
	x := append([]float64(nil), p.Start...)
	r := rng.New(p.Seed)
	var acc LandscapeCheckpoint
	if len(spec.Checkpoint) > 0 {
		if err := wire.Unmarshal(spec.Checkpoint, &acc); err != nil {
			return nil, fmt.Errorf("engines: landscape checkpoint: %w", err)
		}
		x = append(x[:0], acc.X...)
		if err := r.UnmarshalBinary(acc.RngState); err != nil {
			return nil, fmt.Errorf("engines: landscape checkpoint rng: %w", err)
		}
	} else {
		acc.Times = append(acc.Times, 0)
		acc.Frames = append(acc.Frames, append([]float64(nil), x...))
	}

	streaming := emit != nil && p.StreamEveryNs > 0
	seq := 0
	// emitted is the index of the first not-yet-streamed frame. Frame 0
	// duplicates the previous segment's end and is never streamed; after a
	// resume, the checkpointed prefix is the previous run's responsibility.
	emitted := len(acc.Frames)
	if emitted < 1 {
		emitted = 1
	}
	nextFlush := acc.DoneNs + p.StreamEveryNs
	flush := func(final bool) {
		if !streaming || emitted >= len(acc.Frames) {
			return
		}
		chunk := &wire.FrameChunk{
			Project:    spec.Project,
			CommandID:  spec.ID,
			Seq:        seq,
			FirstFrame: emitted,
			Times:      acc.Times[emitted:len(acc.Times):len(acc.Times)],
			Frames:     acc.Frames[emitted:len(acc.Frames):len(acc.Frames)],
			Final:      final,
		}
		chunk.RMSD = make([]float64, len(chunk.Frames))
		for i, f := range chunk.Frames {
			chunk.RMSD[i] = model.RMSD(f)
		}
		emit(chunk)
		seq++
		emitted = len(acc.Frames)
	}

	grad := make([]float64, len(x))
	stepsPerFrame := int(p.FrameNs/p.Params.Dt + 0.5)
	if stepsPerFrame < 1 {
		stepsPerFrame = 1
	}
	nextCkpt := acc.DoneNs + e.CheckpointEveryNs
	for acc.DoneNs+1e-9 < p.DurationNs {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		for s := 0; s < stepsPerFrame; s++ {
			model.Step(x, grad, r)
		}
		acc.DoneNs += p.FrameNs
		acc.Times = append(acc.Times, acc.DoneNs)
		acc.Frames = append(acc.Frames, append([]float64(nil), x...))

		if streaming && acc.DoneNs+1e-9 >= nextFlush && acc.DoneNs+1e-9 < p.DurationNs {
			nextFlush += p.StreamEveryNs
			flush(false)
		}
		if e.CheckpointEveryNs > 0 && progress != nil && acc.DoneNs >= nextCkpt && acc.DoneNs+1e-9 < p.DurationNs {
			nextCkpt += e.CheckpointEveryNs
			acc.X = append(acc.X[:0], x...)
			if st, err := r.MarshalBinary(); err == nil {
				acc.RngState = st
				if ck, err := wire.Marshal(&acc); err == nil {
					progress(ck)
				}
			}
		}
	}
	// Trailing frames since the last flush ride one Final chunk; the result
	// blob below still carries the complete trajectory either way.
	flush(true)

	out := LandscapeOutput{Times: acc.Times, Frames: acc.Frames}
	out.RMSD = make([]float64, len(out.Frames))
	for i, f := range out.Frames {
		out.RMSD[i] = model.RMSD(f)
	}
	return wire.Marshal(&out)
}

// --- md engine ---

// MDName is the executable name of the classical MD engine.
const MDName = "mdrun"

// MDPayload describes a classical MD command on a generated system.
type MDPayload struct {
	SystemKind string // "ljfluid", "water", "polymer", "peptide"
	SystemN    int    // atoms (ljfluid), molecules (water), beads (polymer)
	Density    float64
	BuildSeed  uint64
	Config     md.Config
	Steps      int
	// SampleEvery records energies every that many steps (0 = only final).
	SampleEvery int
	// CheckpointEvery emits a progress checkpoint every that many steps.
	CheckpointEvery int
}

// MDOutput reports the sampled observables.
type MDOutput struct {
	Times        []float64 // ps
	Temperatures []float64
	Potentials   []float64
	Final        md.Energies
	Steps        int64
}

// BuildSystem constructs the payload's molecular system.
func (p *MDPayload) BuildSystem() (*topology.System, error) {
	switch p.SystemKind {
	case "ljfluid":
		d := p.Density
		if d == 0 {
			d = 8
		}
		return topology.LJFluid(p.SystemN, d, p.BuildSeed)
	case "water":
		return topology.WaterBox(p.SystemN, p.BuildSeed)
	case "polymer":
		return topology.PolymerChain(p.SystemN, p.BuildSeed)
	case "peptide":
		return topology.Peptide(p.SystemN, p.BuildSeed)
	default:
		return nil, fmt.Errorf("engines: unknown system kind %q", p.SystemKind)
	}
}

// MDEngine runs classical MD commands.
type MDEngine struct{}

// Name implements Engine.
func (e *MDEngine) Name() string { return MDName }

// Run implements Engine.
func (e *MDEngine) Run(ctx context.Context, spec wire.CommandSpec, cores int, progress func([]byte)) ([]byte, error) {
	var p MDPayload
	if err := wire.Unmarshal(spec.Payload, &p); err != nil {
		return nil, fmt.Errorf("engines: md payload: %w", err)
	}
	if p.Steps <= 0 {
		return nil, fmt.Errorf("engines: md command with no steps")
	}
	sys, err := p.BuildSystem()
	if err != nil {
		return nil, err
	}
	cfg := p.Config
	// Shard auto-sizing: the force-loop fan-out is clamped to the command's
	// core grant (a worker announcing -cores N must never run wider than
	// its grant), and Shards <= 0 auto-sizes to the full grant.
	if cores < 1 {
		cores = 1
	}
	if cfg.Shards <= 0 || cfg.Shards > cores {
		cfg.Shards = cores
	}
	var sim *md.Sim
	if len(spec.Checkpoint) > 0 {
		sim, err = md.Resume(sys, cfg, spec.Checkpoint)
	} else {
		sim, err = md.New(sys, cfg)
	}
	if err != nil {
		return nil, err
	}
	defer sim.Close()

	var out MDOutput
	sample := func() {
		out.Times = append(out.Times, sim.Time())
		out.Temperatures = append(out.Temperatures, sim.Temperature())
		out.Potentials = append(out.Potentials, sim.Energies().Potential())
	}
	if p.SampleEvery > 0 {
		sample()
	}
	target := int64(p.Steps)
	for sim.StepCount() < target {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		chunk := int(target - sim.StepCount())
		if p.SampleEvery > 0 && chunk > p.SampleEvery {
			chunk = p.SampleEvery
		}
		if p.CheckpointEvery > 0 && chunk > p.CheckpointEvery {
			chunk = p.CheckpointEvery
		}
		if err := sim.Step(chunk); err != nil {
			return nil, err
		}
		if p.SampleEvery > 0 && sim.StepCount()%int64(p.SampleEvery) == 0 {
			sample()
		}
		if p.CheckpointEvery > 0 && progress != nil && sim.StepCount() < target &&
			sim.StepCount()%int64(p.CheckpointEvery) == 0 {
			if ck, err := sim.Checkpoint(); err == nil {
				progress(ck)
			}
		}
	}
	out.Final = sim.Energies()
	out.Steps = sim.StepCount()
	return wire.Marshal(&out)
}

// --- BAR sampling engine ---

// BARName is the executable name of the free-energy sampling engine.
const BARName = "bar-sample"

// BARPayload asks for work-value samples between two harmonic alchemical
// states u_λ(x) = (x − λ·Displacement)²/2 + λ·Offset — the analytically
// solvable stand-in for the paper's solvation perturbations, with exact
// ΔF(0→1) = Offset.
type BARPayload struct {
	LambdaFrom, LambdaTo float64
	Displacement         float64
	Offset               float64
	NSamples             int
	Seed                 uint64
}

// BAROutput carries the sampled work values for one window.
type BAROutput struct {
	Forward []float64 // from λFrom ensemble
	Reverse []float64 // from λTo ensemble
}

// BAREngine samples alchemical work values.
type BAREngine struct{}

// Name implements Engine.
func (e *BAREngine) Name() string { return BARName }

// Run implements Engine.
func (e *BAREngine) Run(ctx context.Context, spec wire.CommandSpec, cores int, progress func([]byte)) ([]byte, error) {
	var p BARPayload
	if err := wire.Unmarshal(spec.Payload, &p); err != nil {
		return nil, fmt.Errorf("engines: bar payload: %w", err)
	}
	if p.NSamples <= 0 {
		return nil, fmt.Errorf("engines: bar command with no samples")
	}
	u := func(lambda, x float64) float64 {
		d := x - lambda*p.Displacement
		return d*d/2 + lambda*p.Offset
	}
	r := rng.New(p.Seed)
	var out BAROutput
	for i := 0; i < p.NSamples; i++ {
		// Exact canonical samples of each harmonic state.
		xa := p.LambdaFrom*p.Displacement + r.Norm()
		out.Forward = append(out.Forward, u(p.LambdaTo, xa)-u(p.LambdaFrom, xa))
		xb := p.LambdaTo*p.Displacement + r.Norm()
		out.Reverse = append(out.Reverse, u(p.LambdaFrom, xb)-u(p.LambdaTo, xb))
	}
	return wire.Marshal(&out)
}

// Default returns the standard engine set a stock worker installs.
func Default() []Engine {
	return []Engine{
		&LandscapeEngine{CheckpointEveryNs: 10},
		&MDEngine{},
		&BAREngine{},
		&RepexMDEngine{},
	}
}
