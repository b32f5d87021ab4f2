package engines

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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

// The streaming rollout contract at the engine payload layer, in both
// encodings. A payload written before StreamEveryNs existed decodes it as 0
// — the batch value — and a payload with a field this build does not know
// decodes under today's shape with every known field intact.

// TestPreStreamLandscapePayloadDecodes: a payload encoded before
// StreamEveryNs existed decodes with StreamEveryNs == 0, so commands
// journaled by a pre-streaming server replay with the old behaviour instead
// of an error. In gob that is a value of the old struct; in the binary codec,
// a body that ends before the field.
func TestPreStreamLandscapePayloadDecodes(t *testing.T) {
	type landscapePayloadPreStream struct {
		Params     landscape.Params
		Start      []float64
		DurationNs float64
		FrameNs    float64
		Seed       uint64
	}
	old := landscapePayloadPreStream{
		Params: landscape.DefaultParams(), Start: []float64{1, 2}, DurationNs: 50, FrameNs: 2, Seed: 7,
	}
	var viaGob bytes.Buffer
	if err := gob.NewEncoder(&viaGob).Encode(&old); err != nil {
		t.Fatal(err)
	}
	viaBinary, err := wire.EncodeStruct(&old, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func(*LandscapePayload) error{
		"gob":    func(p *LandscapePayload) error { return wire.Unmarshal(viaGob.Bytes(), p) },
		"binary": func(p *LandscapePayload) error { return wire.DecodeStruct(viaBinary, p) },
	} {
		var got LandscapePayload
		if err := decode(&got); err != nil {
			t.Fatalf("%s: pre-stream payload failed to decode: %v", name, err)
		}
		if got.Params != landscape.DefaultParams() || got.DurationNs != 50 || got.FrameNs != 2 ||
			got.Seed != 7 || len(got.Start) != 2 {
			t.Errorf("%s: pre-stream fields corrupted: %+v", name, got)
		}
		if got.StreamEveryNs != 0 {
			t.Errorf("%s: StreamEveryNs must decode as 0 from pre-stream payloads, got %g", name, got.StreamEveryNs)
		}
	}
}

// TestStreamPayloadDecodesByPreStreamShape covers the reverse direction: a
// payload from a build with one more field than this one decodes under
// today's shape — the bytes after the last known field are skipped, as gob
// dropped unknown fields — so an older engine fed by a newer controller runs
// the segment as it knows how, as a pre-stream engine ran a streaming
// payload without streaming.
func TestStreamPayloadDecodesByPreStreamShape(t *testing.T) {
	type landscapePayloadFuture struct {
		Params        landscape.Params
		Start         []float64
		DurationNs    float64
		FrameNs       float64
		Seed          uint64
		StreamEveryNs float64
		Future        string
	}
	want := LandscapePayload{
		Params: landscape.DefaultParams(), Start: []float64{0, 0}, DurationNs: 20, FrameNs: 2, Seed: 3, StreamEveryNs: 4,
	}
	future, err := wire.EncodeStruct(&landscapePayloadFuture{Params: want.Params, Start: want.Start,
		DurationNs: want.DurationNs, FrameNs: want.FrameNs, Seed: want.Seed, StreamEveryNs: want.StreamEveryNs,
		Future: "a-field-from-the-future"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got LandscapePayload
	if err := wire.DecodeStruct(future, &got); err != nil {
		t.Fatalf("payload with an extra field failed to decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("known fields corrupted: %+v, want %+v", got, want)
	}
}

// FuzzDecodeEngine decodes arbitrary bytes into every engine type: no panic,
// and what decodes re-encodes to bytes that decode to the same encoding. It
// keeps the captured gob bytes and the engines' corpus from the hand-written
// codec (internal/wire/testdata/handcodec) running as seeds with this
// package's tests; wire's FuzzUnmarshal is the target CI fuzzes, with the
// allocation bound, over every registered type.
func FuzzDecodeEngine(f *testing.F) {
	for _, v := range parentValues() {
		f.Add(parentBytes(f, v))
		raw, err := wire.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		corpus, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "handcodec", "engines."+typeName(v)+".gob"))
		if err != nil {
			f.Fatal(err)
		}
		var c struct{ Bytes [][]byte }
		if err := gob.NewDecoder(bytes.NewReader(corpus)).Decode(&c); err != nil {
			f.Fatal(err)
		}
		for _, b := range c.Bytes {
			f.Add(append([]byte{codecTag}, b...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range parentValues() {
			into := fresh(v)
			if wire.Unmarshal(data, into) != nil {
				continue
			}
			once, err := wire.Marshal(into)
			if err != nil {
				if data[0] == codecTag {
					t.Fatalf("decoded %T does not encode: %v", into, err)
				}
				continue // gob carries uneven frames; the codec refuses them
			}
			again := fresh(v)
			if err := wire.Unmarshal(once, again); err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", into, err)
			}
			if twice, _ := wire.Marshal(again); !bytes.Equal(once, twice) {
				t.Fatalf("%T changed in a round trip:\n %+q\n %+q", into, once, twice)
			}
		}
	})
}
