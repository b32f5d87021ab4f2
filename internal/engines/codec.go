package engines

// The engines' payloads, outputs and checkpoints in the binary codec of
// internal/wire (its codec.go has the layout and the evolution rule): each
// type is one struct, fields in declaration order, only ever appended, and
// wire.Marshal writes it as one exact-size tagged frame. The nested
// landscape.Params, md.Config and md.Energies are nested structs, coded here
// through local conversions so that neither package depends on the format.
// Frames are count | dim | raw, so Marshal refuses a LandscapeOutput or
// LandscapeCheckpoint whose frames differ in width. Bytes written before the
// codec reached these types are gob, which wire.Unmarshal still reads.

import (
	"encoding/binary"

	"copernicus/internal/landscape"
	"copernicus/internal/md"
	"copernicus/internal/wire"
)

// --- landscape ---

func (p *LandscapePayload) BodyLen() int {
	return wire.SizeBytes((*landscapeParams)(&p.Params).BodyLen()) + wire.SizeFloats(len(p.Start)) +
		8 + 8 + wire.SizeUvarint(p.Seed) + 8
}

func (p *LandscapePayload) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(p.BodyLen()))
	b = (*landscapeParams)(&p.Params).AppendTo(b)
	b = wire.AppendFloats(b, p.Start)
	b = wire.AppendFloat(b, p.DurationNs)
	b = wire.AppendFloat(b, p.FrameNs)
	b = binary.AppendUvarint(b, p.Seed)
	return wire.AppendFloat(b, p.StreamEveryNs)
}

func (p *LandscapePayload) Decode(body []byte) error {
	r := wire.NewReader(body)
	*p = LandscapePayload{}
	r.Nested((*landscapeParams)(&p.Params))
	p.Start = r.Floats()
	p.DurationNs = r.Float()
	p.FrameNs = r.Float()
	p.Seed = r.Uvarint()
	p.StreamEveryNs = r.Float()
	return r.Err()
}

type landscapeParams landscape.Params

func (p *landscapeParams) BodyLen() int {
	return wire.SizeInt(p.Dimension) + wire.SizeInt(p.Wells) + 7*8
}

func (p *landscapeParams) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(p.BodyLen()))
	b = wire.AppendInt(b, p.Dimension)
	b = wire.AppendFloat(b, p.Barrier)
	b = wire.AppendFloat(b, p.Tilt)
	b = wire.AppendInt(b, p.Wells)
	b = wire.AppendFloat(b, p.WellDepth)
	b = wire.AppendFloat(b, p.Diffusion)
	b = wire.AppendFloat(b, p.Dt)
	b = wire.AppendFloat(b, p.RMSDPerRadius)
	return wire.AppendFloat(b, p.FoldedRMSD)
}

func (p *landscapeParams) Decode(body []byte) error {
	r := wire.NewReader(body)
	*p = landscapeParams{
		Dimension:     r.Int(),
		Barrier:       r.Float(),
		Tilt:          r.Float(),
		Wells:         r.Int(),
		WellDepth:     r.Float(),
		Diffusion:     r.Float(),
		Dt:            r.Float(),
		RMSDPerRadius: r.Float(),
		FoldedRMSD:    r.Float(),
	}
	return r.Err()
}

// Check implements wire.Checker.
func (o *LandscapeOutput) Check() error { return wire.CheckFrames(o.Frames) }

func (o *LandscapeOutput) BodyLen() int {
	return wire.SizeFloats(len(o.Times)) + wire.SizeFrames(o.Frames) + wire.SizeFloats(len(o.RMSD))
}

func (o *LandscapeOutput) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(o.BodyLen()))
	b = wire.AppendFloats(b, o.Times)
	b = wire.AppendFrames(b, o.Frames)
	return wire.AppendFloats(b, o.RMSD)
}

func (o *LandscapeOutput) Decode(body []byte) error {
	r := wire.NewReader(body)
	*o = LandscapeOutput{Times: r.Floats(), Frames: r.Frames(), RMSD: r.Floats()}
	return r.Err()
}

// Check implements wire.Checker.
func (c *LandscapeCheckpoint) Check() error { return wire.CheckFrames(c.Frames) }

func (c *LandscapeCheckpoint) BodyLen() int {
	return wire.SizeFloats(len(c.X)) + 8 + wire.SizeBytes(len(c.RngState)) +
		wire.SizeFloats(len(c.Times)) + wire.SizeFrames(c.Frames)
}

func (c *LandscapeCheckpoint) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.BodyLen()))
	b = wire.AppendFloats(b, c.X)
	b = wire.AppendFloat(b, c.DoneNs)
	b = wire.AppendBytes(b, c.RngState)
	b = wire.AppendFloats(b, c.Times)
	return wire.AppendFrames(b, c.Frames)
}

func (c *LandscapeCheckpoint) Decode(body []byte) error {
	r := wire.NewReader(body)
	*c = LandscapeCheckpoint{
		X:        r.Floats(),
		DoneNs:   r.Float(),
		RngState: r.Bytes(),
		Times:    r.Floats(),
		Frames:   r.Frames(),
	}
	return r.Err()
}

// --- md ---

func (p *MDPayload) BodyLen() int {
	return wire.SizeBytes(len(p.SystemKind)) + wire.SizeInt(p.SystemN) + 8 + wire.SizeUvarint(p.BuildSeed) +
		wire.SizeBytes((*mdConfig)(&p.Config).BodyLen()) + wire.SizeInt(p.Steps) +
		wire.SizeInt(p.SampleEvery) + wire.SizeInt(p.CheckpointEvery)
}

func (p *MDPayload) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(p.BodyLen()))
	b = wire.AppendString(b, p.SystemKind)
	b = wire.AppendInt(b, p.SystemN)
	b = wire.AppendFloat(b, p.Density)
	b = binary.AppendUvarint(b, p.BuildSeed)
	b = (*mdConfig)(&p.Config).AppendTo(b)
	b = wire.AppendInt(b, p.Steps)
	b = wire.AppendInt(b, p.SampleEvery)
	return wire.AppendInt(b, p.CheckpointEvery)
}

func (p *MDPayload) Decode(body []byte) error {
	r := wire.NewReader(body)
	*p = MDPayload{SystemKind: r.Text(), SystemN: r.Int(), Density: r.Float(), BuildSeed: r.Uvarint()}
	r.Nested((*mdConfig)(&p.Config))
	p.Steps = r.Int()
	p.SampleEvery = r.Int()
	p.CheckpointEvery = r.Int()
	return r.Err()
}

type mdConfig md.Config

func (c *mdConfig) BodyLen() int {
	return 3*8 + wire.SizeInt(c.NeighborEvery) + wire.SizeInt(int(c.Thermostat)) + 4*8 +
		wire.SizeInt(c.Shards) + wire.SizeUvarint(c.Seed) + wire.SizeInt(c.COMEvery) + 1
}

func (c *mdConfig) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.BodyLen()))
	b = wire.AppendFloat(b, c.Dt)
	b = wire.AppendFloat(b, c.Cutoff)
	b = wire.AppendFloat(b, c.Skin)
	b = wire.AppendInt(b, c.NeighborEvery)
	b = wire.AppendInt(b, int(c.Thermostat))
	b = wire.AppendFloat(b, c.Temperature)
	b = wire.AppendFloat(b, c.TauT)
	b = wire.AppendFloat(b, c.Gamma)
	b = wire.AppendFloat(b, c.EpsilonRF)
	b = wire.AppendInt(b, c.Shards)
	b = binary.AppendUvarint(b, c.Seed)
	b = wire.AppendInt(b, c.COMEvery)
	return wire.AppendBool(b, c.FixedCadenceRebuild)
}

func (c *mdConfig) Decode(body []byte) error {
	r := wire.NewReader(body)
	*c = mdConfig{
		Dt:                  r.Float(),
		Cutoff:              r.Float(),
		Skin:                r.Float(),
		NeighborEvery:       r.Int(),
		Thermostat:          md.ThermostatKind(r.Int()),
		Temperature:         r.Float(),
		TauT:                r.Float(),
		Gamma:               r.Float(),
		EpsilonRF:           r.Float(),
		Shards:              r.Int(),
		Seed:                r.Uvarint(),
		COMEvery:            r.Int(),
		FixedCadenceRebuild: r.Bool(),
	}
	return r.Err()
}

func (o *MDOutput) BodyLen() int {
	return wire.SizeFloats(len(o.Times)) + wire.SizeFloats(len(o.Temperatures)) +
		wire.SizeFloats(len(o.Potentials)) + wire.SizeBytes((*mdEnergies)(&o.Final).BodyLen()) +
		wire.SizeVarint(o.Steps)
}

func (o *MDOutput) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(o.BodyLen()))
	b = wire.AppendFloats(b, o.Times)
	b = wire.AppendFloats(b, o.Temperatures)
	b = wire.AppendFloats(b, o.Potentials)
	b = (*mdEnergies)(&o.Final).AppendTo(b)
	return binary.AppendVarint(b, o.Steps)
}

func (o *MDOutput) Decode(body []byte) error {
	r := wire.NewReader(body)
	*o = MDOutput{Times: r.Floats(), Temperatures: r.Floats(), Potentials: r.Floats()}
	r.Nested((*mdEnergies)(&o.Final))
	o.Steps = r.Varint()
	return r.Err()
}

type mdEnergies md.Energies

func (e *mdEnergies) BodyLen() int { return 6 * 8 }

func (e *mdEnergies) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(e.BodyLen()))
	b = wire.AppendFloat(b, e.Kinetic)
	b = wire.AppendFloat(b, e.LJ)
	b = wire.AppendFloat(b, e.Coulomb)
	b = wire.AppendFloat(b, e.Bond)
	b = wire.AppendFloat(b, e.Angle)
	return wire.AppendFloat(b, e.Dihedral)
}

func (e *mdEnergies) Decode(body []byte) error {
	r := wire.NewReader(body)
	*e = mdEnergies{Kinetic: r.Float(), LJ: r.Float(), Coulomb: r.Float(), Bond: r.Float(),
		Angle: r.Float(), Dihedral: r.Float()}
	return r.Err()
}

// --- bar ---

func (p *BARPayload) BodyLen() int { return 4*8 + wire.SizeInt(p.NSamples) + wire.SizeUvarint(p.Seed) }

func (p *BARPayload) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(p.BodyLen()))
	b = wire.AppendFloat(b, p.LambdaFrom)
	b = wire.AppendFloat(b, p.LambdaTo)
	b = wire.AppendFloat(b, p.Displacement)
	b = wire.AppendFloat(b, p.Offset)
	b = wire.AppendInt(b, p.NSamples)
	return binary.AppendUvarint(b, p.Seed)
}

func (p *BARPayload) Decode(body []byte) error {
	r := wire.NewReader(body)
	*p = BARPayload{LambdaFrom: r.Float(), LambdaTo: r.Float(), Displacement: r.Float(), Offset: r.Float(),
		NSamples: r.Int(), Seed: r.Uvarint()}
	return r.Err()
}

func (o *BAROutput) BodyLen() int {
	return wire.SizeFloats(len(o.Forward)) + wire.SizeFloats(len(o.Reverse))
}

func (o *BAROutput) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(o.BodyLen()))
	b = wire.AppendFloats(b, o.Forward)
	return wire.AppendFloats(b, o.Reverse)
}

func (o *BAROutput) Decode(body []byte) error {
	r := wire.NewReader(body)
	*o = BAROutput{Forward: r.Floats(), Reverse: r.Floats()}
	return r.Err()
}

// --- repex-md ---

func (p *RepexMDPayload) BodyLen() int {
	return wire.SizeBytes(len(p.SystemKind)) + wire.SizeInt(p.SystemN) + 8 + wire.SizeUvarint(p.BuildSeed) +
		wire.SizeBytes((*mdConfig)(&p.Config).BodyLen()) + wire.SizeVarint(p.TargetStep) +
		wire.SizeInt(p.CheckpointEvery) + wire.SizeBytes(len(p.StartState))
}

func (p *RepexMDPayload) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(p.BodyLen()))
	b = wire.AppendString(b, p.SystemKind)
	b = wire.AppendInt(b, p.SystemN)
	b = wire.AppendFloat(b, p.Density)
	b = binary.AppendUvarint(b, p.BuildSeed)
	b = (*mdConfig)(&p.Config).AppendTo(b)
	b = binary.AppendVarint(b, p.TargetStep)
	b = wire.AppendInt(b, p.CheckpointEvery)
	return wire.AppendBytes(b, p.StartState)
}

func (p *RepexMDPayload) Decode(body []byte) error {
	r := wire.NewReader(body)
	*p = RepexMDPayload{SystemKind: r.Text(), SystemN: r.Int(), Density: r.Float(), BuildSeed: r.Uvarint()}
	r.Nested((*mdConfig)(&p.Config))
	p.TargetStep = r.Varint()
	p.CheckpointEvery = r.Int()
	p.StartState = r.Bytes()
	return r.Err()
}

func (o *RepexMDOutput) BodyLen() int {
	return 2*8 + wire.SizeVarint(o.Steps) + wire.SizeBytes(len(o.State))
}

func (o *RepexMDOutput) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(o.BodyLen()))
	b = wire.AppendFloat(b, o.Potential)
	b = wire.AppendFloat(b, o.Temperature)
	b = binary.AppendVarint(b, o.Steps)
	return wire.AppendBytes(b, o.State)
}

func (o *RepexMDOutput) Decode(body []byte) error {
	r := wire.NewReader(body)
	*o = RepexMDOutput{Potential: r.Float(), Temperature: r.Float(), Steps: r.Varint(), State: r.Bytes()}
	return r.Err()
}
