package wire_test

// One property harness over every registered type — this package's
// messages, the engines' payloads, outputs and checkpoints, and the store's
// WAL records and snapshots — plus the byte-identity corpus the hand-written
// codecs left behind, the struct-shape golden and the one fuzz target over
// the registry.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"copernicus/internal/engines"
	"copernicus/internal/landscape"
	"copernicus/internal/md"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

var framesType = reflect.TypeFor[[][]float64]()

// randomValue returns a pointer to a random t in the form the codec gives
// back: its exported fields random and the rest zero (the codec, like gob,
// carries exported fields only), frames of one non-zero width, and nil for
// every empty list, map or byte run.
func randomValue(tb testing.TB, t reflect.Type, rng *rand.Rand) any {
	tb.Helper()
	p := reflect.New(t)
	for i := 0; i < t.NumField(); i++ {
		if !t.Field(i).IsExported() {
			continue
		}
		v, ok := quick.Value(t.Field(i).Type, rng)
		if !ok {
			tb.Fatalf("cannot generate a %v.%s", t, t.Field(i).Name)
		}
		p.Elem().Field(i).Set(v)
	}
	canonical(p.Elem(), rng)
	return p.Interface()
}

func canonical(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canonical(v.Field(i), rng)
		}
	case reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
		}
	case reflect.Slice:
		switch {
		case v.Len() == 0:
			v.SetZero()
		case v.Type() == framesType:
			dim := 1 + rng.Intn(4)
			for i := 0; i < v.Len(); i++ {
				frame := make([]float64, dim)
				for d := range frame {
					frame[d] = rng.NormFloat64()
				}
				v.Index(i).Set(reflect.ValueOf(frame))
			}
		case v.Type().Elem().Kind() == reflect.Struct:
			for i := 0; i < v.Len(); i++ {
				canonical(v.Index(i), rng)
			}
		}
	}
}

// fields returns the fields of a Marshal result, without tag and length.
func fields(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	n, k := binary.Uvarint(raw[1:])
	if k <= 0 || int(n) != len(raw)-1-k {
		tb.Fatalf("%+q is not one tagged struct", raw)
	}
	return raw[1+k:]
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
	again := wire.Fresh(x)
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

// TestRegistryHoldsTheCodedTypes: the registry is exactly the types the
// round trip, the engines and the store write in the binary codec.
func TestRegistryHoldsTheCodedTypes(t *testing.T) {
	var got []string
	for _, typ := range wire.Registered() {
		got = append(got, typ.String())
	}
	want := []string{"engines.BAROutput", "engines.BARPayload", "engines.LandscapeCheckpoint",
		"engines.LandscapeOutput", "engines.LandscapePayload", "engines.MDOutput", "engines.MDPayload",
		"engines.RepexMDOutput", "engines.RepexMDPayload", "store.Record", "store.Snapshot",
		"wire.AnnounceRequest", "wire.CommandResult", "wire.CommandSpec", "wire.Envelope", "wire.FrameChunk",
		"wire.Heartbeat", "wire.HeartbeatAck", "wire.WorkerFailed", "wire.WorkerInfo", "wire.Workload"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registered types\n got %v\nwant %v", got, want)
	}
}

// forEachRandom calls check on rounds random values of every registered type.
func forEachRandom(t *testing.T, seed int64, rounds int, check func(t *testing.T, p any)) {
	rng := rand.New(rand.NewSource(seed))
	for _, typ := range wire.Registered() {
		t.Run(typ.String(), func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				check(t, randomValue(t, typ, rng))
			}
		})
	}
}

// TestHotTypesNeverReachGob: Marshal of every registered type, by pointer
// and by value, opens with the tag byte and fills its buffer exactly; a type
// outside the registry stays on gob, even one a snapshot nests.
func TestHotTypesNeverReachGob(t *testing.T) {
	forEachRandom(t, 1, 20, func(t *testing.T, p any) {
		for _, v := range []any{p, reflect.ValueOf(p).Elem().Interface()} {
			raw, err := wire.Marshal(v)
			if err != nil {
				t.Fatalf("Marshal(%T): %v", v, err)
			}
			if raw[0] != wire.CodecTag {
				t.Fatalf("Marshal(%T) opens with %#x, want the codec tag", v, raw[0])
			}
			if len(raw) != cap(raw) {
				t.Errorf("Marshal(%T): %d bytes in a buffer of %d; the size pass and the encoder disagree", v, len(raw), cap(raw))
			}
		}
	})
	for _, v := range []any{&wire.ProjectSubmit{Name: "p"}, &wire.TenantStatus{ID: "t"}, &store.ProjectSnap{Name: "p"}} {
		if raw, err := wire.Marshal(v); err != nil || raw[0] == wire.CodecTag {
			t.Errorf("Marshal(%T) = %+q, %v; want gob", v, raw, err)
		}
	}
}

// TestBinaryDecodeEqualsGobDecode: for every registered type, a value sent
// through the binary codec comes out exactly as it does through gob, the
// encoding it replaced (and still reads from old WAL records).
func TestBinaryDecodeEqualsGobDecode(t *testing.T) {
	forEachRandom(t, 2, 100, func(t *testing.T, p any) {
		var old bytes.Buffer
		if err := gob.NewEncoder(&old).Encode(p); err != nil {
			t.Fatal(err)
		}
		viaGob, viaBinary := wire.Fresh(p), wire.Fresh(p)
		if err := wire.Unmarshal(old.Bytes(), viaGob); err != nil {
			t.Fatalf("gob: %v", err)
		}
		raw, err := wire.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.Unmarshal(raw, viaBinary); err != nil {
			t.Fatalf("binary: %v", err)
		}
		if !reflect.DeepEqual(viaGob, viaBinary) {
			t.Fatalf("differs by encoding:\n gob    %.300q\n binary %.300q", fmt.Sprint(viaGob), fmt.Sprint(viaBinary))
		}
	})
}

// TestRegisteredTypesRoundTrip: every registered type decodes to the value
// it was made from, within DecodeAllocLimit; skips a field a later build
// appended; and refuses every strict prefix of its encoding with an error,
// never a panic.
func TestRegisteredTypesRoundTrip(t *testing.T) {
	forEachRandom(t, 3, 20, func(t *testing.T, p any) {
		raw, err := wire.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		got := wire.Fresh(p)
		if n := wire.Allocated(func() { err = wire.Unmarshal(raw, got) }); n > wire.DecodeAllocLimit(len(raw)) {
			t.Errorf("%d bytes allocated decoding %d", n, len(raw))
		}
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, got, p)
		}
		future := wire.Rebody(append(bytes.Clone(fields(t, raw)), 6, 'f', 'u', 't', 'u', 'r', 'e'))
		later := wire.Fresh(p)
		if err := wire.Unmarshal(future, later); err != nil || !reflect.DeepEqual(later, p) {
			t.Fatalf("with a trailing unknown field: %v\n got %+v\nwant %+v", err, later, p)
		}
		for cut := 0; cut < len(raw); cut++ {
			if err := wire.Unmarshal(raw[:cut], wire.Fresh(p)); err == nil {
				t.Fatalf("prefix of %d of %d bytes decoded", cut, len(raw))
			}
		}
	})
}

// TestTruncatedBodiesNeverPanic cuts values of every registered type inside
// their fields, keeping the length prefix honest so that the cut reaches the
// field decoders: the result is an error or, at a field boundary, a shorter
// value that encodes.
func TestTruncatedBodiesNeverPanic(t *testing.T) {
	forEachRandom(t, 4, 3, func(t *testing.T, p any) {
		raw, err := wire.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		body := fields(t, raw)
		for cut := 0; cut < len(body); cut++ {
			got := wire.Fresh(p)
			if err := wire.Unmarshal(wire.Rebody(body[:cut]), got); err != nil {
				continue
			}
			if _, err := wire.Marshal(got); err != nil {
				t.Fatalf("cut at %d decoded as %+v, which does not encode: %v", cut, got, err)
			}
		}
	})
}

// TestDerivedMinimumSizes: the smallest element the plans derive from the
// declarations, which bounds a list's count, is what the hand-written
// decoders hard-coded.
func TestDerivedMinimumSizes(t *testing.T) {
	for typ, want := range map[reflect.Type]int{
		reflect.TypeFor[wire.CommandSpec]():  13,
		reflect.TypeFor[store.ProjectSnap](): 15,
		reflect.TypeFor[store.CommandSnap](): 20,
		reflect.TypeFor[wire.TenantStatus](): 32,
	} {
		if got := wire.MinSize(typ); got != want {
			t.Errorf("smallest %v is %d bytes, want %d", typ, got, want)
		}
	}
}

// TestMarshalRefusesUnevenFrames: frames are count | dim | raw, so a value
// whose frames differ in width, or are empty, does not encode.
func TestMarshalRefusesUnevenFrames(t *testing.T) {
	for _, frames := range [][][]float64{{{1, 2}, {3}}, {{}, {}}, {{1}, nil}} {
		for _, v := range []any{&wire.FrameChunk{Frames: frames}, &engines.LandscapeOutput{Frames: frames},
			&engines.LandscapeCheckpoint{Frames: frames}} {
			if _, err := wire.Marshal(v); err == nil {
				t.Errorf("Marshal(%T) accepted frames %v", v, frames)
			}
		}
	}
}

// corpus is one testdata/handcodec file: seeded random values of one type
// and what the hand-written codec, the last build to have one, encoded each
// to — uvarint bodyLen | fields, without the tag. Captured; never regenerate
// them from current code.
type corpus[T any] struct {
	Values []T
	Bytes  [][]byte
}

// loadCorpus reads T's testdata/handcodec file.
func loadCorpus[T any](t *testing.T) (string, corpus[T]) {
	name := reflect.TypeFor[T]().String()
	raw, err := os.ReadFile(filepath.Join("testdata", "handcodec", name+".gob"))
	if err != nil {
		t.Fatal(err)
	}
	var c corpus[T]
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&c); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(c.Values) == 0 || len(c.Values) != len(c.Bytes) {
		t.Fatalf("%s: %d values, %d encodings", name, len(c.Values), len(c.Bytes))
	}
	return name, c
}

func checkCorpus[T any](t *testing.T) {
	name, c := loadCorpus[T](t)
	for i := range c.Values {
		var got T
		if err := wire.DecodeStruct(c.Bytes[i], &got); err != nil {
			t.Fatalf("%s #%d: %v", name, i, err)
		}
		if !reflect.DeepEqual(got, c.Values[i]) {
			t.Errorf("%s #%d decoded as %+v, want %+v", name, i, got, c.Values[i])
		}
		// The fields the hand codec knew encode as it wrote them.
		if old := wire.AsCaptured(&c.Values[i]); !bytes.Equal(old, c.Bytes[i]) {
			t.Errorf("%s #%d encodes as %+q; the hand codec wrote %+q", name, i, old, c.Bytes[i])
		}
		again, err := wire.EncodeStruct(&c.Values[i], 0)
		if err != nil {
			t.Fatalf("%s #%d: %v", name, i, err)
		}
		if tagged, err := wire.Marshal(c.Values[i]); err == nil && tagged[0] == wire.CodecTag &&
			!bytes.Equal(tagged[1:], again) {
			t.Errorf("%s #%d marshals as %+q", name, i, tagged)
		}
	}
}

// TestHandCodecCorpusDecodesAndReencodes: every value the hand-written codecs
// encoded decodes from their bytes to itself, and encodes to the same bytes —
// all 27 types they covered, nested ones included.
func TestHandCodecCorpusDecodesAndReencodes(t *testing.T) {
	checks := []func(*testing.T){
		checkCorpus[wire.Envelope], checkCorpus[wire.CommandSpec], checkCorpus[wire.CommandResult],
		checkCorpus[wire.FrameChunk], checkCorpus[wire.WorkerInfo], checkCorpus[wire.AnnounceRequest],
		checkCorpus[wire.Workload], checkCorpus[wire.Heartbeat], checkCorpus[wire.HeartbeatAck],
		checkCorpus[wire.WorkerFailed],
		checkCorpus[engines.LandscapePayload], checkCorpus[engines.LandscapeOutput],
		checkCorpus[engines.LandscapeCheckpoint], checkCorpus[engines.MDPayload], checkCorpus[engines.MDOutput],
		checkCorpus[engines.BARPayload], checkCorpus[engines.BAROutput], checkCorpus[engines.RepexMDPayload],
		checkCorpus[engines.RepexMDOutput], checkCorpus[landscape.Params], checkCorpus[md.Config],
		checkCorpus[md.Energies],
		checkCorpus[store.Record], checkCorpus[store.Snapshot], checkCorpus[store.ProjectSnap],
		checkCorpus[store.CommandSnap], checkCorpus[wire.TenantStatus],
	}
	files, err := filepath.Glob(filepath.Join("testdata", "handcodec", "*.gob"))
	if err != nil || len(files) != len(checks) {
		t.Fatalf("%d corpus files for %d checks (%v)", len(files), len(checks), err)
	}
	for _, check := range checks {
		check(t)
	}
}

func checkValueBody[T any](t *testing.T) {
	name, c := loadCorpus[T](t)
	for i := range c.Values {
		payload, err := wire.Marshal(&c.Values[i])
		if err != nil {
			t.Fatal(err)
		}
		env := wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgResult, From: "tx", To: "rx",
			RequestID: uint64(i), TTL: 7, Payload: payload}
		want, err := wire.AppendEnvelope(nil, &env)
		if err != nil {
			t.Fatal(err)
		}
		// By pointer and by value, into a fresh buffer and after what a
		// reused one already holds.
		for j, body := range []any{&c.Values[i], c.Values[i]} {
			if err := env.SetBody(body); err != nil {
				t.Fatalf("%s #%d: SetBody: %v", name, i, err)
			}
			if env.Payload != nil || env.PayloadLen() != len(payload) {
				t.Errorf("%s #%d: a value body keeps Payload %d bytes and counts %d, want none and %d",
					name, i, len(env.Payload), env.PayloadLen(), len(payload))
			}
			if b, err := env.PayloadBytes(); err != nil || !bytes.Equal(b, payload) {
				t.Errorf("%s #%d: PayloadBytes gives %d bytes, %v; Marshal gave %d", name, i, len(b), err, len(payload))
			}
			prefix := []byte("held")[:4*j]
			got, err := wire.AppendEnvelope(append(make([]byte, 0, 64), prefix...), &env)
			if err != nil {
				t.Fatalf("%s #%d: %v", name, i, err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("%s #%d: the value body frames as\n %+q\nwant (Payload = Marshal(v))\n %+q", name, i, got, want)
			}
		}
	}
}

// TestValueBodyFramesAsMarshalledPayload: an envelope carrying a registered
// value as its body frames to the same bytes as one carrying Marshal(value)
// as its Payload, for every value of the hand-codec corpus whose type is
// registered.
func TestValueBodyFramesAsMarshalledPayload(t *testing.T) {
	for _, check := range []func(*testing.T){
		checkValueBody[wire.Envelope], checkValueBody[wire.CommandSpec], checkValueBody[wire.CommandResult],
		checkValueBody[wire.FrameChunk], checkValueBody[wire.WorkerInfo], checkValueBody[wire.AnnounceRequest],
		checkValueBody[wire.Workload], checkValueBody[wire.Heartbeat], checkValueBody[wire.HeartbeatAck],
		checkValueBody[wire.WorkerFailed],
		checkValueBody[engines.LandscapePayload], checkValueBody[engines.LandscapeOutput],
		checkValueBody[engines.LandscapeCheckpoint], checkValueBody[engines.MDPayload],
		checkValueBody[engines.MDOutput], checkValueBody[engines.BARPayload], checkValueBody[engines.BAROutput],
		checkValueBody[engines.RepexMDPayload], checkValueBody[engines.RepexMDOutput],
		checkValueBody[store.Record], checkValueBody[store.Snapshot],
	} {
		check(t)
	}
}

// TestSetBodyRefusesWhatMarshalRefuses: a body the codec cannot encode is
// refused at SetBody with Marshal's own error, and the envelope keeps what it
// carried.
func TestSetBodyRefusesWhatMarshalRefuses(t *testing.T) {
	for _, v := range []any{&wire.FrameChunk{Frames: [][]float64{{1, 2}, {3}}}, (*wire.CommandResult)(nil)} {
		_, merr := wire.Marshal(v)
		env := wire.Envelope{Payload: []byte("kept")}
		err := env.SetBody(v)
		if err == nil || merr == nil || err.Error() != merr.Error() {
			t.Errorf("SetBody(%T) = %v, want Marshal's %v", v, err, merr)
		}
		if string(env.Payload) != "kept" || env.PayloadLen() != 4 {
			t.Errorf("a refused %T changed the envelope's payload", v)
		}
	}
}

// shapeFile is where the registered types' shapes are pinned.
const shapeFile = "testdata/shapes.golden"

// readShapes parses Shapes' format into each type's "field encoding" lines,
// in order, and the types in order of first appearance.
func readShapes(text string) (map[string][]string, []string) {
	byType := map[string][]string{}
	var order []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		typ, rest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if _, seen := byType[typ]; !seen {
			order = append(order, typ)
		}
		byType[typ] = append(byType[typ], rest)
	}
	return byType, order
}

// TestStructShapesOnlyGrow: the declaration order of a coded struct is its
// format, so each pinned type must still start with its pinned fields, in
// order and with the same encoding. Appending a field (or coding a new type)
// passes; moving, removing or retyping one fails and names it. A deliberate
// addition appends its lines to testdata/shapes.golden by hand.
func TestStructShapesOnlyGrow(t *testing.T) {
	raw, err := os.ReadFile(shapeFile)
	if err != nil {
		t.Fatal(err)
	}
	pinned, order := readShapes(string(raw))
	current, _ := readShapes(wire.Shapes())
	for _, typ := range order {
		now, ok := current[typ]
		if !ok {
			t.Errorf("%s is pinned in %s but no longer coded", typ, shapeFile)
			continue
		}
		for i, want := range pinned[typ] {
			if i >= len(now) {
				t.Errorf("%s: field %q was removed", typ, want)
			} else if now[i] != want {
				t.Errorf("%s: field %d is %q, pinned as %q; fields may only be appended", typ, i, now[i], want)
			}
		}
		if len(now) > len(pinned[typ]) {
			t.Logf("%s has fields after the pinned ones; append them to %s", typ, shapeFile)
		}
	}
}

// fuzzDecode decodes data into into: no panic; binary-coded input never
// makes the decoder allocate out of proportion to its size; and what decodes
// survives a round trip.
func fuzzDecode(t *testing.T, data []byte, into any) {
	// Only binary input is held to the bound, so only it is measured:
	// ReadMemStats stops the world, and an exec that calls it stalls the
	// fuzzer's minimization of new inputs.
	var err error
	binaryCoded := len(data) > 0 && data[0] == wire.CodecTag
	if !binaryCoded {
		err = wire.Unmarshal(data, into)
	} else if got := wire.Allocated(func() { err = wire.Unmarshal(data, into) }); got > wire.DecodeAllocLimit(len(data)) {
		t.Fatalf("%T: %d bytes allocated for %d bytes of input", into, got, len(data))
	}
	if err != nil {
		return
	}
	if _, err := wire.Marshal(into); err != nil && !binaryCoded {
		return // gob carries uneven frames; the codec refuses them
	}
	checkRoundTrip(t, into)
}

// corpusBytes returns the encodings in a testdata/handcodec file.
func corpusBytes(tb testing.TB, file string) [][]byte {
	raw, err := os.ReadFile(file)
	if err != nil {
		tb.Fatal(err)
	}
	var c struct{ Bytes [][]byte } // gob skips Values
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&c); err != nil {
		tb.Fatal(err)
	}
	return c.Bytes
}

// FuzzUnmarshal decodes arbitrary bytes into a registered type, picked by
// the first byte, under fuzzDecode's checks. Seeds: every corpus entry of a
// registered type, the engines' captured gob bytes, and random values whole
// and cut in half.
func FuzzUnmarshal(f *testing.F) {
	types := wire.Registered()
	index := map[string]byte{}
	for i, typ := range types {
		index[typ.String()] = byte(i)
	}
	files, _ := filepath.Glob(filepath.Join("testdata", "handcodec", "*.gob"))
	for _, file := range files {
		if i, ok := index[strings.TrimSuffix(filepath.Base(file), ".gob")]; ok {
			for _, b := range corpusBytes(f, file) {
				f.Add(append([]byte{i, wire.CodecTag}, b...))
			}
		}
	}
	gobs, _ := filepath.Glob(filepath.Join("..", "engines", "testdata", "*.gob"))
	for _, file := range gobs {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{index["engines."+strings.TrimSuffix(filepath.Base(file), ".gob")]}, raw...))
	}
	rng := rand.New(rand.NewSource(4))
	for i, typ := range types {
		raw, err := wire.Marshal(randomValue(f, typ, rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(i)}, raw...))
		f.Add(append([]byte{byte(i)}, wire.Rebody(fields(f, raw)[:len(raw)/2])...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			fuzzDecode(t, data[1:], reflect.New(types[int(data[0])%len(types)]).Interface())
		}
	})
}

// FuzzUnmarshalHot runs fuzzDecode on every one of the round trip's own
// messages for each input, seeded with the captured fixtures of every
// protocol version, gob and binary, and the corpus. FuzzUnmarshal is the
// target CI fuzzes; this one keeps those seeds running with the tests.
func FuzzUnmarshalHot(f *testing.F) {
	for _, seed := range wire.FixtureSeeds() {
		f.Add(seed)
	}
	files, _ := filepath.Glob(filepath.Join("testdata", "handcodec", "wire.*.gob"))
	for _, file := range files {
		for _, b := range corpusBytes(f, file) {
			f.Add(append([]byte{wire.CodecTag}, b...))
		}
	}
	var hot []reflect.Type
	for _, typ := range wire.Registered() {
		if strings.HasPrefix(typ.String(), "wire.") {
			hot = append(hot, typ)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range hot {
			fuzzDecode(t, data, reflect.New(typ).Interface())
		}
	})
}
