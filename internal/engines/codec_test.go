package engines

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"copernicus/internal/wire"
)

// The registry harness in wire checks these properties for every registered
// type; the tests here pin them for the engine types from this package's
// side, with values built the way the engines build them.

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
// encoding it replaced (and still reads from old WAL records).
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

// TestMarshalRefusesUnevenFrames: an engine output or checkpoint whose frames
// differ in width, or are empty, does not encode.
func TestMarshalRefusesUnevenFrames(t *testing.T) {
	for _, frames := range [][][]float64{{{1, 2}, {3}}, {{}, {}}, {{1}, nil}} {
		for _, v := range []any{&LandscapeOutput{Frames: frames}, &LandscapeCheckpoint{Frames: frames}} {
			if _, err := wire.Marshal(v); err == nil {
				t.Errorf("Marshal(%T) accepted frames %v", v, frames)
			}
		}
	}
}
