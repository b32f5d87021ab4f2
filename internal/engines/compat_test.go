package engines

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"copernicus/internal/landscape"
	"copernicus/internal/wire"
)

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
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&landscapePayloadPreStream{
		Params: landscape.DefaultParams(), Start: []float64{1, 2}, DurationNs: 50, FrameNs: 2, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := wire.Marshal(&LandscapePayload{
		Params: landscape.DefaultParams(), Start: []float64{1, 2}, DurationNs: 50, FrameNs: 2, Seed: 7, StreamEveryNs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fields := fieldsOf(t, raw)
	preStream := rebody(fields[:len(fields)-8]) // StreamEveryNs is the last field, 8 bytes
	for name, data := range map[string][]byte{"gob": old.Bytes(), "binary": preStream} {
		var got LandscapePayload
		if err := wire.Unmarshal(data, &got); err != nil {
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
	// A body cut inside the field is damage, not history.
	if err := wire.Unmarshal(rebody(fields[:len(fields)-3]), new(LandscapePayload)); err == nil {
		t.Error("payload cut inside StreamEveryNs decoded")
	}
}

// TestStreamPayloadDecodesByPreStreamShape covers the reverse direction: a
// payload from a build with one more field than this one decodes under
// today's shape — the bytes after the last known field are skipped, as gob
// dropped unknown fields — so an older engine fed by a newer controller runs
// the segment as it knows how, as a pre-stream engine ran a streaming
// payload without streaming.
func TestStreamPayloadDecodesByPreStreamShape(t *testing.T) {
	want := LandscapePayload{
		Params: landscape.DefaultParams(), Start: []float64{0, 0}, DurationNs: 20, FrameNs: 2, Seed: 3, StreamEveryNs: 4,
	}
	raw, err := wire.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	future := rebody(wire.AppendString(fieldsOf(t, raw), "a-field-from-the-future"))
	var got LandscapePayload
	if err := wire.Unmarshal(future, &got); err != nil {
		t.Fatalf("payload with an extra field failed to decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("known fields corrupted: %+v, want %+v", got, want)
	}
}
