package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// Captured ProtocolVersion=3 fixtures: what the binary codec wrote when it
// was introduced. They pin the layout the way the gob fixtures in
// compat_test.go pin the older ones — do not regenerate from current code. A
// field appended to one of these structs must leave every test on them
// passing: the decoder reads the fixture with the new field zero, and only
// fixtureValues gains nothing.
var (
	specV3Fixture = []byte("\x009\x05cmd-7\x06villin\x04acme\x05srv-a\x05mdrun\x04\b\t\tsteps=500\x02ck\tvillin/e1\x04")

	resultV3Fixture = []byte("\x00,\x05cmd-7\x06villin\x03w-7\x01\x00\x00\x03out\a/fs/out\x02ck\b\x00\x00\x00\x00\x00\x00\xf8?")

	workloadV3Fixture = []byte("\x00p\x029\x05cmd-7\x06villin\x04acme\x05srv-a\x05mdrun\x04\b\t\tsteps=500\x02ck\tvillin/e1\x04\x1c\x05cmd-3\x06villin\x00\x00\x05mdrun\x02\x02\x00\x00\x00\x00\x00\x02\x05cmd-3\x02\x05cmd-7\b\x00\x00\x00\x00\x00\x00^@\x01")

	chunkV3Fixture = []byte("\x00g\x06villin\x05cmd-9\x02w3\x04\x16\x02\x00\x00\x00\x00\x00\x800@\x00\x00\x00\x00\x00\x002@\x02\x03\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00\x00\x00\b@\x00\x00\x00\x00\x00\x00\x10@\x00\x00\x00\x00\x00\x00\x14@\x00\x00\x00\x00\x00\x00\x18@\x02\xcd\xcc\xcc\xcc\xcc\xcc\xec?\x9a\x99\x99\x99\x99\x99\xe9?\x01")

	// A complete frame: 4-byte length, then the envelope.
	frameV3Fixture = []byte("\x00\x00\x006\x004\x06\x06result\x03w-7\x05srv-a\b\a\x06\x05\x04\x03\x02\x01\x01\x0e\x03pay\x04boom\x0eadmission_shed")
)

// appendedSince holds, per coded type, how many of its last fields were
// appended after the fixtures and the hand-codec corpus were captured.
var appendedSince = map[reflect.Type]int{
	reflect.TypeFor[CommandResult](): 1, // Refill
	reflect.TypeFor[TenantStatus]():  2, // Shed, QuotaRejects
}

// asCaptured encodes *v as uvarint bodyLen | fields, without the tag, the
// way the build that captured the fixtures and the corpus did: without the
// fields appended since, in v and in every struct it nests.
func asCaptured(v any) []byte {
	rv := reflect.ValueOf(v).Elem()
	p, err := planOf(rv.Type())
	if err != nil {
		panic(err)
	}
	p = capturedPlan(p)
	return p.appendFields(binary.AppendUvarint(nil, uint64(p.size(rv))), rv)
}

// grown is a captured top-level message (tag, length, fields) as v's type
// marshals it now: the fields followed by one zero byte for each field
// appended since, every one of them an int.
func grown(captured []byte, v any) []byte {
	n := appendedSince[reflect.TypeOf(v).Elem()]
	size, k := binary.Uvarint(captured[1:])
	out := binary.AppendUvarint([]byte{codecTag}, size+uint64(n))
	out = append(out, captured[1+k:]...)
	return append(out, make([]byte, n)...)
}

// capturedPlan is p less the fields appended since the capture.
func capturedPlan(p *plan) *plan {
	c := *p
	c.fields = slices.Clone(p.fields[:len(p.fields)-appendedSince[p.typ]])
	for i := range c.fields {
		if c.fields[i].elem != nil {
			c.fields[i].elem = capturedPlan(c.fields[i].elem)
		}
	}
	return &c
}

func fixtureSpec() CommandSpec {
	return CommandSpec{ID: "cmd-7", Project: "villin", Tenant: "acme", Origin: "srv-a", Type: "mdrun",
		MinCores: 2, MaxCores: 4, Priority: -5, Payload: []byte("steps=500"), Checkpoint: []byte("ck"),
		GangID: "villin/e1", GangSize: 2}
}

// fixture pairs a captured payload with the value it was made from.
type fixture struct {
	name  string
	bytes []byte
	value any
}

func fixtureValues() []fixture {
	spec := fixtureSpec()
	return []fixture{
		{"CommandSpec", specV3Fixture, &spec},
		{"CommandResult", resultV3Fixture, &CommandResult{CommandID: "cmd-7", Project: "villin", WorkerID: "w-7",
			OK: true, Output: []byte("out"), OutputPath: "/fs/out", Checkpoint: []byte("ck"), CoresUsed: 4, WallSeconds: 1.5}},
		{"Workload", workloadV3Fixture, &Workload{
			Commands:         []CommandSpec{spec, {ID: "cmd-3", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1}},
			Cores:            map[string]int{"cmd-7": 4, "cmd-3": 1},
			HeartbeatSeconds: 120, SharedFS: true}},
		{"FrameChunk", chunkV3Fixture, &FrameChunk{Project: "villin", CommandID: "cmd-9", WorkerID: "w3",
			Seq: 2, FirstFrame: 11, Times: []float64{16.5, 18}, Frames: [][]float64{{1, 2, 3}, {4, 5, 6}},
			RMSD: []float64{0.9, 0.8}, Final: true}},
	}
}

func fixtureEnvelope() *Envelope {
	return &Envelope{Version: 3, Type: MsgResult, From: "w-7", To: "srv-a", RequestID: 0x0102030405060708,
		IsReply: true, TTL: 7, Payload: []byte("pay"), Err: "boom", ErrCode: ErrCodeShed}
}

// fresh returns a new zero value of v's type, v being a pointer.
func fresh(v any) any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }

func TestV3FixturesDecodeAndReencode(t *testing.T) {
	for _, f := range fixtureValues() {
		got := fresh(f.value)
		if err := Unmarshal(f.bytes, got); err != nil {
			t.Fatalf("%s fixture failed to decode: %v", f.name, err)
		}
		if !reflect.DeepEqual(got, f.value) {
			t.Errorf("%s fixture decoded as %+v, want %+v", f.name, got, f.value)
		}
		// Encoding is deterministic (Workload.Cores is sorted), so the value
		// gives the captured bytes back from the fields it had then.
		if raw := asCaptured(f.value); !bytes.Equal(raw, f.bytes[1:]) {
			t.Errorf("%s encodes as %+q, captured %+q", f.name, raw, f.bytes[1:])
		}
		// And Marshal writes the captured message grown by the zeros of the
		// fields appended since, and by nothing else.
		raw, err := Marshal(f.value)
		if err != nil {
			t.Fatal(err)
		}
		if want := grown(f.bytes, f.value); !bytes.Equal(raw, want) {
			t.Errorf("%s marshals as %+q, want %+q", f.name, raw, want)
		}
	}
	// Version 4 left the envelope's layout as it was, so the v3 frame's body
	// still decodes; a v4 reader refuses the frame for its version alone.
	var ve *VersionError
	if _, err := ReadEnvelope(bytes.NewReader(frameV3Fixture)); !errors.As(err, &ve) || ve.Got != 3 || ve.Want != ProtocolVersion {
		t.Errorf("v3 frame read as err %v, want a VersionError naming 3 and %d", err, ProtocolVersion)
	}
	var env Envelope
	if err := Unmarshal(frameV3Fixture[frameHeaderLen:], &env); err != nil {
		t.Fatalf("v3 frame fixture: %v", err)
	}
	if !reflect.DeepEqual(&env, fixtureEnvelope()) {
		t.Errorf("v3 frame decoded as %+v", env)
	}
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, fixtureEnvelope()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), frameV3Fixture) {
		t.Errorf("frame encodes as %+q, captured %+q", buf.Bytes(), frameV3Fixture)
	}
}

// rebody wraps fields as a top-level message: tag, length, fields.
func rebody(fields []byte) []byte {
	return append(binary.AppendUvarint([]byte{codecTag}, uint64(len(fields))), fields...)
}

// specFields is the body of specV3Fixture, without tag and length.
func specFields() []byte { return specV3Fixture[2:] }

// TestEvolutionExtraTrailingFieldSkipped: a struct written by a build that
// has appended a field decodes here with the known fields intact — at the top
// level and nested inside a list, where the skip must land on the next element.
func TestEvolutionExtraTrailingFieldSkipped(t *testing.T) {
	longer := appendString(append([]byte(nil), specFields()...), "a-field-from-the-future")
	var got CommandSpec
	if err := Unmarshal(rebody(longer), &got); err != nil {
		t.Fatalf("spec with a trailing field: %v", err)
	}
	if want := fixtureSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("spec with a trailing field = %+v, want %+v", got, want)
	}

	// Workload{Commands: [longer spec, fixture spec], no cores, 30 s}.
	wl := binary.AppendUvarint(nil, 2)
	wl = appendBytes(wl, longer)
	wl = appendBytes(wl, specFields())
	wl = binary.AppendUvarint(wl, 0)
	wl = appendFloat(wl, 30)
	wl = appendBool(wl, false)
	wl = append(wl, "and more"...)
	var gotWL Workload
	if err := Unmarshal(rebody(wl), &gotWL); err != nil {
		t.Fatalf("workload with trailing fields: %v", err)
	}
	want := fixtureSpec()
	if len(gotWL.Commands) != 2 || !reflect.DeepEqual(gotWL.Commands[0], want) ||
		!reflect.DeepEqual(gotWL.Commands[1], want) || gotWL.HeartbeatSeconds != 30 {
		t.Errorf("workload with trailing fields = %+v", gotWL)
	}
}

// TestEvolutionShortBodyLeavesZero: a struct written before a field existed
// decodes with that field zero — one field short, and cut further back at the
// field boundary the pre-gang gob fixture pins for the older encoding.
func TestEvolutionShortBodyLeavesZero(t *testing.T) {
	fields := specFields()
	var got CommandSpec
	if err := Unmarshal(rebody(fields[:len(fields)-1]), &got); err != nil {
		t.Fatalf("spec one field short: %v", err)
	}
	want := fixtureSpec()
	want.GangSize = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spec one field short = %+v, want %+v", got, want)
	}

	preGang := fields[:len(fields)-1-len("\tvillin/e1")]
	if err := Unmarshal(rebody(preGang), &got); err != nil {
		t.Fatalf("pre-gang spec: %v", err)
	}
	want.GangID = ""
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pre-gang spec = %+v, want %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("pre-gang spec should validate: %v", err)
	}

	// A body cut inside a field is damage, not history.
	if err := Unmarshal(rebody(fields[:len(fields)-3]), &got); err == nil {
		t.Error("spec cut inside GangID decoded")
	}
}

// TestMarshalNilPointerIsAnError: a nil pointer to a codec type is refused
// with an error, as gob refused it, not dereferenced.
func TestMarshalNilPointerIsAnError(t *testing.T) {
	for typ := range registry {
		null := reflect.Zero(reflect.PointerTo(typ)).Interface()
		if _, err := Marshal(null); err == nil {
			t.Errorf("Marshal(%T(nil)) succeeded", null)
		}
	}
	if err := WriteEnvelope(io.Discard, nil); err == nil {
		t.Error("WriteEnvelope(nil) succeeded")
	}
}

// allocated reports the bytes f allocates (and whatever else the process
// allocates meanwhile, which the callers' limits leave room for).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeAllocatesWhatTheInputHolds feeds the decoders inputs of a
// megabyte built to cost the most memory per byte — lists of the smallest
// elements there are, counts that promise more than follows — and holds each
// to DecodeAllocLimit: nothing is allocated for an element that is not there.
func TestDecodeAllocatesWhatTheInputHolds(t *testing.T) {
	const size = 1 << 20
	counted := func(n int, rest []byte) []byte { return append(binary.AppendUvarint(nil, uint64(n)), rest...) }
	var pairs []byte // every two-letter key: no map of that many costs fewer bytes
	npairs := 0
	for ; npairs < 1<<16; npairs++ {
		pairs = binary.AppendVarint(appendString(pairs, string([]byte{byte(npairs), byte(npairs >> 8)})), 1)
	}
	oneBigString := appendBytes(nil, make([]byte, size))
	specMinBytes := registry[reflect.TypeFor[CommandSpec]()].min
	cases := []struct {
		name  string
		body  []byte
		into  any
		valid bool
	}{
		{"empty strings", append([]byte{0}, counted(size, make([]byte, size))...), new(Heartbeat), true},
		{"string count as large as one long string allows", append([]byte{0}, counted(size, oneBigString)...), new(Heartbeat), false},
		{"empty commands", counted(size/specMinBytes, make([]byte, size)), new(Workload), true},
		{"command count as large as one long command allows", counted(size/specMinBytes, oneBigString), new(Workload), false},
		{"two-letter cores keys", append([]byte{0}, counted(npairs, pairs)...), new(Workload), true},
		{"cores count as large as one long key allows", append([]byte{0}, counted(size/2, oneBigString)...), new(Workload), false},
		{"frames of one coordinate", append(make([]byte, 6), append(binary.AppendUvarint(counted(size/8, nil), 1), make([]byte, size)...)...), new(FrameChunk), true},
	}
	for _, tc := range cases {
		data := rebody(tc.body)
		var err error
		got := allocated(func() { err = Unmarshal(data, tc.into) })
		if (err == nil) != tc.valid {
			t.Errorf("%s: err = %v, want valid = %v", tc.name, err, tc.valid)
		}
		t.Logf("%s: %d bytes allocated for %d of input (%.1fx)", tc.name, got, len(data), float64(got)/float64(len(data)))
		if got > DecodeAllocLimit(len(data)) {
			t.Errorf("%s: %d bytes allocated for %d bytes of input", tc.name, got, len(data))
		}
	}
}

func TestHostileInputIsAnErrorNotAnAllocation(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := []struct {
		name string
		data []byte
		into any
	}{
		{"tag only", []byte{codecTag}, new(Heartbeat)},
		{"length past the end", []byte{codecTag, 9, 1, 'w'}, new(Heartbeat)},
		{"bytes after the message", append(append([]byte(nil), specV3Fixture...), 0), new(CommandSpec)},
		{"unterminated varint", rebody([]byte{0xff, 0xff}), new(HeartbeatAck)},
		{"string count", rebody(append(appendString(nil, "w"), append(huge, "abc"...)...)), new(Heartbeat)},
		{"string list ends early", rebody([]byte{1, 'w', 3, 1, 'a'}), new(Heartbeat)},
		{"command count", rebody(append(huge, 0, 0, 0)), new(Workload)},
		{"cores count", rebody(append([]byte{0}, append(huge, 1, 'a', 2)...)), new(Workload)},
		{"cores key without value", rebody([]byte{0, 1, 1, 'a'}), new(Workload)},
		{"float count", rebody(append([]byte{0, 0, 0, 0, 0}, append(huge, make([]byte, 16)...)...)), new(FrameChunk)},
		{"frame count times width overflows", rebody(append([]byte{0, 0, 0, 0, 0, 0},
			append(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<33), 1<<33), make([]byte, 64)...)...)), new(FrameChunk)},
		{"frames of width zero", rebody([]byte{0, 0, 0, 0, 0, 0, 5, 0}), new(FrameChunk)},
		{"bool byte", rebody([]byte{0, 0, 0, 2}), new(CommandResult)},
		{"short float", rebody([]byte{0, 1, 2, 3}), new(AnnounceRequest)},
		{"nested length past the end", rebody([]byte{9, 1}), new(AnnounceRequest)},
		{"binary data for a gob type", specV3Fixture, new(ProjectSubmit)},
	}
	for _, tc := range cases {
		var err error
		got := allocated(func() { err = Unmarshal(tc.data, tc.into) })
		if err == nil {
			t.Errorf("%s: decoded as %+v", tc.name, tc.into)
		}
		if got > DecodeAllocLimit(len(tc.data)) {
			t.Errorf("%s: %d bytes allocated for %d bytes of input", tc.name, got, len(tc.data))
		}
	}
}

// TestDecodeAliasesInput pins the in-place contract Unmarshal documents.
func TestDecodeAliasesInput(t *testing.T) {
	raw, err := Marshal(&CommandResult{CommandID: "c", Output: []byte("0123456789"), Checkpoint: []byte("ck")})
	if err != nil {
		t.Fatal(err)
	}
	var res CommandResult
	if err := Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, []byte("0123456789"))
	if &res.Output[0] != &raw[at] {
		t.Error("Output was copied out of the input")
	}
	// An append to the sub-slice must not run into the bytes that follow it.
	grown := append(res.Output, 'X')
	if &grown[0] == &res.Output[0] || !bytes.Equal(res.Checkpoint, []byte("ck")) {
		t.Error("append to Output wrote into the input")
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteEnvelopeIsOneWrite(t *testing.T) {
	var w countingWriter
	if err := WriteEnvelope(&w, fixtureEnvelope()); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Errorf("one frame took %d writes, want 1", w.writes)
	}
}

// TestReadEnvelopeDoesNotTrustTheHeader: a header announcing a gigabyte,
// followed by ten bytes, is an error that cost almost nothing.
func TestReadEnvelopeDoesNotTrustTheHeader(t *testing.T) {
	stream := append([]byte{0x40, 0, 0, 0}, make([]byte, 10)...)
	var err error
	got := allocated(func() { _, err = ReadEnvelope(bytes.NewReader(stream)) })
	if err == nil {
		t.Fatal("torn gigabyte frame accepted")
	}
	if got >= 2<<20 {
		t.Errorf("torn gigabyte frame allocated %d bytes, want < 2 MiB", got)
	}
}

// TestLargeFrameRoundTrip sends a body above the size allocated on trust, so
// it arrives through the growing buffer.
func TestLargeFrameRoundTrip(t *testing.T) {
	payload := make([]byte, 3*trustedBodyBytes+12345)
	rand.New(rand.NewSource(3)).Read(payload)
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, &Envelope{Version: ProtocolVersion, Type: MsgResult, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	// One byte at a time at first, so growth steps meet short reads.
	env, err := ReadEnvelope(io.MultiReader(iotest.OneByteReader(bytes.NewReader(buf.Next(100))), &buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Payload, payload) {
		t.Error("large payload corrupted")
	}
}

// FuzzReadEnvelope feeds arbitrary streams to the frame reader: torn tails,
// lying lengths, gob bodies with a tag and tagged bodies without.
func FuzzReadEnvelope(f *testing.F) {
	f.Add(frameV3Fixture)
	f.Add(frameV1Fixture)
	f.Add(frameV3Fixture[:len(frameV3Fixture)-3])
	f.Add(append([]byte{0x40, 0, 0, 0}, frameV3Fixture[4:]...))
	f.Add(append([]byte{0, 0, 0, 2}, frameV3Fixture[4:]...))
	f.Add(append(append([]byte{0, 0, 0, 0xf5}, codecTag), frameV1Fixture[4:]...))
	f.Add(append([]byte{0, 0, 0, 0x35}, frameV3Fixture[5:]...))
	f.Add(append(append([]byte(nil), frameV3Fixture...), frameV3Fixture...))
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var env *Envelope
		var err error
		got := allocated(func() { env, err = ReadEnvelope(r) })
		// A body without the tag goes to gob, whose reader trusts a declared
		// message length up to 10 MiB; that one is not ours to bound.
		binaryCoded := len(stream) > frameHeaderLen && stream[frameHeaderLen] == codecTag
		if limit := DecodeAllocLimit(len(stream)) + trustedBodyBytes; binaryCoded && got > limit {
			t.Fatalf("%d bytes allocated for a stream of %d", got, len(stream))
		}
		if err != nil {
			return
		}
		if env.Version != ProtocolVersion {
			t.Fatalf("envelope of version %d accepted", env.Version)
		}
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, env); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEnvelope(&buf)
		if err != nil || !reflect.DeepEqual(back, env) {
			t.Fatalf("accepted envelope %+v re-read as %+v, %v", env, back, err)
		}
	})
}

// BenchmarkWireRoundTrip is one message's whole trip through this package:
// Marshal, framed write, framed read, Unmarshal — the number
// docs/PERFORMANCE.md quotes for the codec.
func BenchmarkWireRoundTrip(b *testing.B) {
	output := make([]byte, 16<<10)
	spec := CommandSpec{ID: "loop0-000123", Project: "loop0", Tenant: "tenant0", Origin: "866f42dddf1ef3dc",
		Type: "bench-spin", MinCores: 1, MaxCores: 1, Payload: make([]byte, 256)}
	for _, bc := range []struct {
		name string
		typ  MsgType
		msg  any
	}{
		{"result16k", MsgResult, &CommandResult{CommandID: spec.ID, Project: spec.Project, WorkerID: "worker-0-1",
			OK: true, Output: output, CoresUsed: 1, WallSeconds: 0.0005}},
		{"workload", MsgAnnounce, &Workload{Commands: []CommandSpec{spec, spec},
			Cores: map[string]int{spec.ID: 1}, HeartbeatSeconds: 120}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var stream bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				payload, err := Marshal(bc.msg)
				if err != nil {
					b.Fatal(err)
				}
				stream.Reset()
				err = WriteEnvelope(&stream, &Envelope{Version: ProtocolVersion, Type: bc.typ,
					From: "worker-0-1", To: spec.Origin, RequestID: uint64(i), TTL: 8, Payload: payload})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(stream.Len()))
				env, err := ReadEnvelope(&stream)
				if err != nil {
					b.Fatal(err)
				}
				if err := Unmarshal(env.Payload, fresh(bc.msg)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestUnmarshalNamesTheType(t *testing.T) {
	err := Unmarshal([]byte{codecTag, 9}, new(Heartbeat))
	if err == nil || !strings.Contains(err.Error(), "*wire.Heartbeat") {
		t.Errorf("error %v does not name the type being decoded", err)
	}
}
