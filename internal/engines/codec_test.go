package engines

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"copernicus/internal/landscape"
	"copernicus/internal/md"
	"copernicus/internal/wire"
)

// codecTag is the byte that opens every binary-coded message (wire's
// codec.go); no gob stream starts with it.
const codecTag = 0x00

func parentConfig(temp float64) md.Config {
	return md.Config{Dt: 0.002, Cutoff: 0.9, Skin: 0.1, NeighborEvery: 10, Thermostat: md.Langevin,
		Temperature: temp, TauT: 0.5, Gamma: 1.5, EpsilonRF: 78, Shards: 2, Seed: 1 << 40, COMEvery: 100,
		FixedCadenceRebuild: true}
}

// parentValues are the values whose gob encodings, written by the last
// build that sent engine types as gob, are captured in
// testdata/<type>.gob. Every field is set, nested structs included.
func parentValues() []any {
	return []any{
		&LandscapePayload{
			Params: landscape.Params{Dimension: 3, Barrier: 5, Tilt: 7.6, Wells: 3, WellDepth: 1.5,
				Diffusion: 0.003, Dt: 0.0005, RMSDPerRadius: 6.5, FoldedRMSD: 3.5},
			Start: []float64{1.25, -0.5, 2}, DurationNs: 50, FrameNs: 2.5, Seed: 0xdeadbeefcafe, StreamEveryNs: 10},
		&LandscapeOutput{Times: []float64{0, 2.5, 5}, Frames: [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, -9}},
			RMSD: []float64{0.9, 0.8, 0.7}},
		&LandscapeCheckpoint{X: []float64{0.5, -1, 1.5}, DoneNs: 5, RngState: []byte{1, 2, 3, 4, 5, 6, 7, 8},
			Times: []float64{0, 2.5}, Frames: [][]float64{{1, 2, 3}, {4, 5, 6}}},
		&MDPayload{SystemKind: "water", SystemN: 192, Density: 33.4, BuildSeed: 99, Config: parentConfig(300),
			Steps: 500, SampleEvery: 50, CheckpointEvery: 100},
		&MDOutput{Times: []float64{0, 0.1, 0.2}, Temperatures: []float64{300, 301.5, 299.25},
			Potentials: []float64{-1500, -1490.5, -1510.25},
			Final:      md.Energies{Kinetic: 700, LJ: 250.5, Coulomb: -1800, Bond: 12.5, Angle: 8.25, Dihedral: 3.125},
			Steps:      500},
		&BARPayload{LambdaFrom: 0.25, LambdaTo: 0.5, Displacement: 2, Offset: -3.5, NSamples: 200, Seed: 11},
		&BAROutput{Forward: []float64{0.5, 1.25, -0.75}, Reverse: []float64{-0.5, 0.25}},
		&RepexMDPayload{SystemKind: "ljfluid", SystemN: 64, Density: 8, BuildSeed: 5, Config: parentConfig(320),
			TargetStep: 1200, CheckpointEvery: 300, StartState: []byte("md checkpoint bytes")},
		&RepexMDOutput{Potential: -1234.5, Temperature: 301.25, Steps: 1200, State: []byte("boundary state")},
	}
}

// fresh returns a new zero value of v's type, v being a pointer.
func fresh(v any) any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }

func typeName(v any) string { return reflect.TypeOf(v).Elem().Name() }

// parentBytes reads the captured gob encoding of v's type.
func parentBytes(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + typeName(v) + ".gob")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestParentWrittenEngineBytesDecode: the gob bytes an older build wrote for
// each engine type — what old WAL result records, checkpoints and the
// payloads of queued commands in old snapshots hold — decode to the values
// they were made from. The files are captured; never regenerate them.
func TestParentWrittenEngineBytesDecode(t *testing.T) {
	for _, want := range parentValues() {
		raw := parentBytes(t, want)
		if raw[0] == codecTag {
			t.Fatalf("testdata/%s.gob is binary-coded; it must be the captured gob", typeName(want))
		}
		got := fresh(want)
		if err := wire.Unmarshal(raw, got); err != nil {
			t.Fatalf("%s: %v", typeName(want), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s decoded as %+v, want %+v", typeName(want), got, want)
		}
	}
}

// randomEngine returns a random value of every engine type.
func randomEngine(t testing.TB, rng *rand.Rand) []any {
	t.Helper()
	var out []any
	for _, zero := range parentValues() {
		v, ok := quick.Value(reflect.TypeOf(zero).Elem(), rng)
		if !ok {
			t.Fatalf("cannot generate a %T", zero)
		}
		p := reflect.New(v.Type())
		p.Elem().Set(v)
		// The layout carries frames of one non-zero width.
		dim := 1 + rng.Intn(4)
		switch x := p.Interface().(type) {
		case *LandscapeOutput:
			evenFrames(rng, x.Frames, dim)
		case *LandscapeCheckpoint:
			evenFrames(rng, x.Frames, dim)
		}
		out = append(out, p.Interface())
	}
	return out
}

func evenFrames(rng *rand.Rand, frames [][]float64, dim int) {
	for i := range frames {
		frames[i] = make([]float64, dim)
		for d := range frames[i] {
			frames[i][d] = rng.NormFloat64()
		}
	}
}

// TestEngineTypesMarshalExactSize: Marshal of every engine type, by pointer
// and by value, opens with the codec tag and fills its buffer exactly.
func TestEngineTypesMarshalExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		for _, p := range append(randomEngine(t, rng), parentValues()...) {
			for _, v := range []any{p, reflect.ValueOf(p).Elem().Interface()} {
				raw, err := wire.Marshal(v)
				if err != nil {
					t.Fatalf("Marshal(%T): %v", v, err)
				}
				if raw[0] != codecTag {
					t.Fatalf("Marshal(%T) starts with %#x, want the codec tag", v, raw[0])
				}
				if len(raw) != cap(raw) {
					t.Errorf("Marshal(%T): %d bytes in a buffer of %d; the size pass and the encoder disagree",
						v, len(raw), cap(raw))
				}
			}
		}
	}
}

// TestEngineBinaryDecodeEqualsGobDecode: for every engine type, a value sent
// through the binary codec comes out exactly as it does through gob, the
// encoding it replaces (and still reads from old WAL records).
func TestEngineBinaryDecodeEqualsGobDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 100; round++ {
		for _, v := range randomEngine(t, rng) {
			var old bytes.Buffer
			if err := gob.NewEncoder(&old).Encode(v); err != nil {
				t.Fatal(err)
			}
			viaGob, viaBinary := fresh(v), fresh(v)
			if err := wire.Unmarshal(old.Bytes(), viaGob); err != nil {
				t.Fatalf("gob %T: %v", v, err)
			}
			raw, err := wire.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.Unmarshal(raw, viaBinary); err != nil {
				t.Fatalf("binary %T: %v\n%+v", v, err, v)
			}
			if !reflect.DeepEqual(viaGob, viaBinary) {
				t.Fatalf("%T differs by encoding:\n gob    %.300q\n binary %.300q",
					v, fmt.Sprint(viaGob), fmt.Sprint(viaBinary))
			}
		}
	}
}

func TestMarshalRefusesUnevenFrames(t *testing.T) {
	for _, frames := range [][][]float64{{{1, 2}, {3}}, {{}, {}}, {{1}, nil}} {
		for _, v := range []any{&LandscapeOutput{Frames: frames}, &LandscapeCheckpoint{Frames: frames}} {
			if _, err := wire.Marshal(v); err == nil {
				t.Errorf("Marshal(%T) accepted frames %v", v, frames)
			}
		}
	}
}

// allocated reports the bytes f allocates (and whatever else the process
// allocates meanwhile, which DecodeAllocLimit leaves room for).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rebody wraps fields as a top-level message: tag, length, fields.
func rebody(fields []byte) []byte {
	return append(binary.AppendUvarint([]byte{codecTag}, uint64(len(fields))), fields...)
}

// fieldsOf returns the fields of a Marshal result, without tag and length.
func fieldsOf(t testing.TB, raw []byte) []byte {
	t.Helper()
	r := wire.NewReader(raw[1:])
	fields := r.Bytes()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return bytes.Clone(fields)
}

// checkRoundTrip asserts that a decoded x is a fixed point of the codec:
// encoding it, decoding that and encoding again gives the same bytes
// (comparing encodings, unlike DeepEqual, treats a NaN as itself).
func checkRoundTrip(t *testing.T, x any) {
	t.Helper()
	once, err := wire.Marshal(x)
	if err != nil {
		t.Fatalf("decoded %T does not encode: %v", x, err)
	}
	again := fresh(x)
	if err := wire.Unmarshal(once, again); err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", x, err)
	}
	twice, err := wire.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once, twice) {
		t.Fatalf("%T changed in a round trip:\n %+q\n %+q", x, once, twice)
	}
}

// FuzzDecodeEngine decodes arbitrary bytes into every engine type: no panic;
// binary-coded input never makes the decoder allocate more than
// wire.DecodeAllocLimit; and what decodes re-encodes to bytes that decode to
// the same value.
func FuzzDecodeEngine(f *testing.F) {
	for _, v := range parentValues() {
		f.Add(parentBytes(f, v))
		raw, err := wire.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(rebody(fieldsOf(f, raw)[:len(raw)/2]))
	}
	f.Add(rebody(append(binary.AppendUvarint(nil, 1<<40), "abc"...)))
	for _, v := range randomEngine(f, rand.New(rand.NewSource(4))) {
		raw, err := wire.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range parentValues() {
			into := fresh(v)
			// Only binary input is held to the bound, so only it is measured:
			// ReadMemStats stops the world.
			var err error
			binaryCoded := len(data) > 0 && data[0] == codecTag
			if !binaryCoded {
				err = wire.Unmarshal(data, into)
			} else if got := allocated(func() { err = wire.Unmarshal(data, into) }); got > wire.DecodeAllocLimit(len(data)) {
				t.Fatalf("%T: %d bytes allocated for %d bytes of input", into, got, len(data))
			}
			if err != nil {
				continue
			}
			if c, ok := into.(wire.Checker); ok && !binaryCoded && c.Check() != nil {
				continue // gob carries uneven frames; the codec refuses them
			}
			checkRoundTrip(t, into)
		}
	})
}
