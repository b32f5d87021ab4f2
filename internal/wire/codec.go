package wire

// The binary codec of the command round trip. The messages that cross the
// system once or more per command — Envelope, AnnounceRequest/WorkerInfo,
// Workload/CommandSpec, CommandResult, Heartbeat/HeartbeatAck, FrameChunk and
// WorkerFailed — are written by hand, append-style, into one exact-size
// buffer and decoded in place; the types that do not implement Message stay
// on gob (wire.go). Other packages write their types in the same struct
// format through the exported Message, Reader and Size/Append helpers:
// internal/store its WAL records and snapshots, internal/engines the
// payloads, outputs and checkpoints inside CommandSpec and CommandResult.
//
// Layout. A Marshal result is the tag byte 0x00 followed by one struct. No
// gob stream starts with 0x00 (a gob message opens with its non-zero
// length), which is how Unmarshal tells the two apart, and how bytes written
// before this codec existed are still read.
//
// Evolution rule (the append-only contract gob used to give, now pinned by
// the captured v3 fixtures in codec_test.go): every struct is
//
//	uvarint bodyLen | fields in declaration order
//
// Fields are only ever appended to a struct. A decoder that finds the body
// ended before a field leaves that field and all later ones zero; a decoder
// that has filled the last field it knows skips what is left of the body.
// Inside a list nothing is optional: a count that promises more elements
// than the body holds is an error.
//
// Field encodings: int is a zigzag varint; a string or []byte is uvarint
// length | bytes; bool is one byte, 0 or 1; float64 and Envelope.RequestID
// are 8 bytes little-endian; a list is uvarint count | elements, and an empty
// list, map or byte run decodes as nil; a nested struct is a struct as above.
// Workload.Cores is count | (key, int) pairs in sorted key order, so equal
// workloads make equal frames. A frames field (FrameChunk.Frames, the
// landscape engine's trajectories) is count | dim | count×dim raw float64,
// which is why Marshal refuses frames of unequal or zero width.
//
// Hostile input: nothing is allocated on a length's or a count's word. Every
// length is checked against the bytes that remain; a list's count is checked
// against them too (count ≤ remaining / smallest element an encoder can
// write) and its elements are then found in the body, one by one, before the
// list is allocated; Workload.Cores grows as its pairs decode. What decoding
// allocates is therefore the in-memory size of what the input really holds —
// a small multiple of the input, not its size, because a 16-byte string
// header, a 176-byte CommandSpec or a map slot can each be spelled in a few
// bytes (codec_test.go measures the worst of each: 16, 13.5 and some 30 bytes
// per input byte). Truncated, over-long and trailing bytes are errors, never
// panics.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
)

// codecTag opens every binary-coded message.
const codecTag = 0x00

// Message is implemented by (pointers to) the types the binary codec knows:
// this package's hot messages, and the types another package persists in the
// same format (internal/store's WAL records and snapshots). Marshal writes
// any Message in the binary codec.
type Message interface {
	// BodyLen is the encoded size of the fields, without the length prefix.
	BodyLen() int
	// AppendTo appends uvarint BodyLen | fields.
	AppendTo(b []byte) []byte
	// Decode fills the receiver from body, the bytes after the length
	// prefix. Byte-slice fields alias body.
	Decode(body []byte) error
}

var messageType = reflect.TypeFor[Message]()

// asMessage returns v as a Message when its type implements one, given by
// pointer or by value (a value is copied behind a new pointer); nil for the
// types that stay on gob.
func asMessage(v any) Message {
	if m, ok := v.(Message); ok {
		return m
	}
	t := reflect.TypeOf(v)
	if t == nil || t.Kind() == reflect.Pointer || !reflect.PointerTo(t).Implements(messageType) {
		return nil
	}
	p := reflect.New(t)
	p.Elem().Set(reflect.ValueOf(v))
	return p.Interface().(Message)
}

// Checker is implemented by the messages that can hold a value the layout
// cannot carry — frames of unequal width. Marshal refuses such a message with
// Check's error.
type Checker interface {
	Check() error
}

// marshalMessage encodes m into one buffer of exactly the encoded size, with
// room for a frame header of headroom bytes in front.
func marshalMessage(m Message, headroom int) ([]byte, error) {
	if reflect.ValueOf(m).IsNil() {
		return nil, fmt.Errorf("wire: encoding %T: nil pointer", m)
	}
	if c, ok := m.(Checker); ok {
		if err := c.Check(); err != nil {
			return nil, fmt.Errorf("wire: encoding %T: %w", m, err)
		}
	}
	n := m.BodyLen()
	b := make([]byte, headroom, headroom+1+SizeUvarint(uint64(n))+n)
	return m.AppendTo(append(b, codecTag)), nil
}

// DecodeAllocLimit bounds what decoding n bytes of binary-coded input may
// allocate: the in-memory size of the costliest thing n bytes can spell, plus
// room for the error value and a test process's own noise. A list of empty
// strings costs 16 bytes of header per input byte, a list of the smallest
// CommandSpecs 176 bytes per 13, and Workload.Cores under two-letter keys
// some 27 per byte (35 under the 256 one-letter keys): map slots, and the
// smaller maps it outgrew. The decoders' tests and fuzz targets, here and in
// the packages with Messages of their own, hold every decode to it.
func DecodeAllocLimit(n int) uint64 { return uint64(40*n) + 16<<10 }

// DecodeMessage decodes data, one struct as AppendTo wrote it (for Unmarshal,
// the bytes after the tag), into m. Bytes after the struct are an error.
func DecodeMessage(data []byte, m Message) error {
	if len(data) == 0 {
		return errTruncated
	}
	r := Reader{b: data}
	body := r.Bytes()
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d bytes after the end of the message", len(r.b))
	}
	return m.Decode(body)
}

// --- encoding ---

// SizeUvarint is the encoded size of a uvarint (a uint64 field, a count, a
// length prefix).
func SizeUvarint(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// SizeVarint is the encoded size of a zigzag varint (an int64 field).
func SizeVarint(x int64) int { return SizeUvarint(uint64(x<<1) ^ uint64(x>>63)) }

// SizeInt is the encoded size of an int field.
func SizeInt(v int) int { return SizeVarint(int64(v)) }

// SizeBytes is the encoded size of a string or []byte of n bytes, and of a
// nested struct whose body is n bytes.
func SizeBytes(n int) int { return SizeUvarint(uint64(n)) + n }

func sizeStrings(ss []string) int {
	n := SizeUvarint(uint64(len(ss)))
	for _, s := range ss {
		n += SizeBytes(len(s))
	}
	return n
}

// SizeFloats is the encoded size of a []float64 field of n elements.
func SizeFloats(n int) int { return SizeUvarint(uint64(n)) + 8*n }

// SizeFrames is the encoded size of a frames field, count | dim | raw.
func SizeFrames(frames [][]float64) int {
	n, dim := len(frames), frameDim(frames)
	return SizeUvarint(uint64(n)) + SizeUvarint(uint64(dim)) + 8*n*dim
}

// AppendInt appends an int field; an int64 is binary.AppendVarint and a
// uint64 binary.AppendUvarint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendString appends a string field.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends a []byte field.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendBool appends a bool field.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends a float64 field.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendFloats appends a []float64 field: uvarint count | count raw float64.
func AppendFloats(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = AppendFloat(b, f)
	}
	return b
}

// AppendFrames appends a [][]float64 field of frames sharing one width:
// uvarint count | uvarint dim | count×dim raw float64. A message with such a
// field implements Checker with CheckFrames, so Marshal never gets here with
// frames of unequal width.
func AppendFrames(b []byte, frames [][]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(frames)))
	b = binary.AppendUvarint(b, uint64(frameDim(frames)))
	for _, frame := range frames {
		for _, x := range frame {
			b = AppendFloat(b, x)
		}
	}
	return b
}

// CheckFrames reports frames the count | dim | raw layout cannot carry.
func CheckFrames(frames [][]float64) error {
	for i, f := range frames {
		if len(f) == 0 || len(f) != len(frames[0]) {
			return fmt.Errorf("frame %d has %d coordinates, frame 0 has %d; frames must share one non-zero width",
				i, len(f), len(frames[0]))
		}
	}
	return nil
}

// frameDim is the shared width of frames (0 with no frames).
func frameDim(frames [][]float64) int {
	if len(frames) == 0 {
		return 0
	}
	return len(frames[0])
}

// --- decoding ---

var errTruncated = errors.New("wire: message truncated")

// Reader consumes one struct body. At the end of the body every field read
// returns the zero value — the evolution rule — while a field that starts
// and cannot finish is an error. The first error sticks and empties the
// reader, so a Decode method reads all its fields and checks Err once.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads body, the bytes after a struct's length prefix.
func NewReader(body []byte) Reader { return Reader{b: body} }

// Err is the first error the reader met, nil if none.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Uvarint reads a uint64 field, a count or a length.
func (r *Reader) Uvarint() uint64 {
	if len(r.b) == 0 {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads an int64 field.
func (r *Reader) Varint() int64 {
	if len(r.b) == 0 {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads an int field.
func (r *Reader) Int() int { return int(r.Varint()) }

// Bytes reads a []byte field and returns it as a sub-slice of the input (nil
// when empty), capped so that an append cannot reach what follows.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail(fmt.Errorf("wire: length %d exceeds the %d bytes that remain", n, len(r.b)))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Text reads a string field.
func (r *Reader) Text() string { return string(r.Bytes()) }

// Bool reads a bool field.
func (r *Reader) Bool() bool {
	if len(r.b) == 0 {
		return false
	}
	v := r.b[0]
	if v > 1 {
		r.fail(fmt.Errorf("wire: bool byte %#x", v))
		return false
	}
	r.b = r.b[1:]
	return v == 1
}

func (r *Reader) fixed64() uint64 {
	if len(r.b) == 0 {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Float reads a float64 field.
func (r *Reader) Float() float64 { return math.Float64frombits(r.fixed64()) }

// count reads a list's element count and refuses one the remaining bytes
// cannot hold at minSize bytes per element.
func (r *Reader) count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail(fmt.Errorf("wire: count %d exceeds the %d bytes that remain", n, len(r.b)))
		return 0
	}
	return int(n)
}

// List reads the count of a list of length-prefixed elements (strings,
// structs) and finds every one of them in the body, so that the caller
// allocates for elements that are there and not for a number. The end of the
// body inside a list is a truncation, not an absent field.
func (r *Reader) List(minSize int) int {
	n := r.count(minSize)
	rest := r.b
	for i := 0; i < n; i++ {
		size, k := binary.Uvarint(rest)
		if k <= 0 || size > uint64(len(rest)-k) {
			r.fail(errTruncated)
			return 0
		}
		rest = rest[k+int(size):]
	}
	return n
}

func (r *Reader) strings() []string {
	n := r.List(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Text()
	}
	return out
}

// Floats reads a []float64 field.
func (r *Reader) Floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return out
}

// Frames reads a frames field, count | dim | raw. The frames share one
// backing array, each capped at its own width.
func (r *Reader) Frames() [][]float64 {
	n, dim := r.Uvarint(), r.Uvarint()
	if n == 0 {
		return nil
	}
	words := uint64(len(r.b) / 8)
	if dim == 0 || dim > words || n > words/dim {
		r.fail(fmt.Errorf("wire: %d frames of width %d exceed the %d bytes that remain", n, dim, len(r.b)))
		return nil
	}
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*len(flat):]
	out := make([][]float64, n)
	for i := range out {
		lo, hi := i*int(dim), (i+1)*int(dim)
		out[i] = flat[lo:hi:hi]
	}
	return out
}

// Nested decodes a struct field into m.
func (r *Reader) Nested(m Message) {
	if err := m.Decode(r.Bytes()); err != nil {
		r.fail(err)
	}
}

// --- Envelope ---

func (e *Envelope) BodyLen() int {
	return SizeInt(e.Version) + SizeBytes(len(e.Type)) + SizeBytes(len(e.From)) + SizeBytes(len(e.To)) +
		8 + 1 + SizeInt(e.TTL) + SizeBytes(len(e.Payload)) + SizeBytes(len(e.Err)) + SizeBytes(len(e.ErrCode))
}

func (e *Envelope) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(e.BodyLen()))
	b = AppendInt(b, e.Version)
	b = AppendString(b, string(e.Type))
	b = AppendString(b, e.From)
	b = AppendString(b, e.To)
	b = binary.LittleEndian.AppendUint64(b, e.RequestID)
	b = AppendBool(b, e.IsReply)
	b = AppendInt(b, e.TTL)
	b = AppendBytes(b, e.Payload)
	b = AppendString(b, e.Err)
	return AppendString(b, e.ErrCode)
}

func (e *Envelope) Decode(body []byte) error {
	r := Reader{b: body}
	*e = Envelope{
		Version:   r.Int(),
		Type:      MsgType(r.Text()),
		From:      r.Text(),
		To:        r.Text(),
		RequestID: r.fixed64(),
		IsReply:   r.Bool(),
		TTL:       r.Int(),
		Payload:   r.Bytes(),
		Err:       r.Text(),
		ErrCode:   r.Text(),
	}
	return r.err
}

// --- CommandSpec ---

func (c *CommandSpec) BodyLen() int {
	return SizeBytes(len(c.ID)) + SizeBytes(len(c.Project)) + SizeBytes(len(c.Tenant)) +
		SizeBytes(len(c.Origin)) + SizeBytes(len(c.Type)) +
		SizeInt(c.MinCores) + SizeInt(c.MaxCores) + SizeInt(c.Priority) +
		SizeBytes(len(c.Payload)) + SizeBytes(len(c.Checkpoint)) +
		SizeBytes(len(c.GangID)) + SizeInt(c.GangSize)
}

func (c *CommandSpec) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.BodyLen()))
	b = AppendString(b, c.ID)
	b = AppendString(b, c.Project)
	b = AppendString(b, c.Tenant)
	b = AppendString(b, c.Origin)
	b = AppendString(b, c.Type)
	b = AppendInt(b, c.MinCores)
	b = AppendInt(b, c.MaxCores)
	b = AppendInt(b, c.Priority)
	b = AppendBytes(b, c.Payload)
	b = AppendBytes(b, c.Checkpoint)
	b = AppendString(b, c.GangID)
	return AppendInt(b, c.GangSize)
}

func (c *CommandSpec) Decode(body []byte) error {
	r := Reader{b: body}
	*c = CommandSpec{
		ID:         r.Text(),
		Project:    r.Text(),
		Tenant:     r.Text(),
		Origin:     r.Text(),
		Type:       r.Text(),
		MinCores:   r.Int(),
		MaxCores:   r.Int(),
		Priority:   r.Int(),
		Payload:    r.Bytes(),
		Checkpoint: r.Bytes(),
		GangID:     r.Text(),
		GangSize:   r.Int(),
	}
	return r.err
}

// --- CommandResult ---

func (c *CommandResult) BodyLen() int {
	return SizeBytes(len(c.CommandID)) + SizeBytes(len(c.Project)) + SizeBytes(len(c.WorkerID)) +
		1 + 1 + SizeBytes(len(c.Error)) + SizeBytes(len(c.Output)) + SizeBytes(len(c.OutputPath)) +
		SizeBytes(len(c.Checkpoint)) + SizeInt(c.CoresUsed) + 8
}

func (c *CommandResult) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.BodyLen()))
	b = AppendString(b, c.CommandID)
	b = AppendString(b, c.Project)
	b = AppendString(b, c.WorkerID)
	b = AppendBool(b, c.OK)
	b = AppendBool(b, c.Partial)
	b = AppendString(b, c.Error)
	b = AppendBytes(b, c.Output)
	b = AppendString(b, c.OutputPath)
	b = AppendBytes(b, c.Checkpoint)
	b = AppendInt(b, c.CoresUsed)
	return AppendFloat(b, c.WallSeconds)
}

func (c *CommandResult) Decode(body []byte) error {
	r := Reader{b: body}
	*c = CommandResult{
		CommandID:   r.Text(),
		Project:     r.Text(),
		WorkerID:    r.Text(),
		OK:          r.Bool(),
		Partial:     r.Bool(),
		Error:       r.Text(),
		Output:      r.Bytes(),
		OutputPath:  r.Text(),
		Checkpoint:  r.Bytes(),
		CoresUsed:   r.Int(),
		WallSeconds: r.Float(),
	}
	return r.err
}

// --- FrameChunk ---

// Check implements Checker.
func (c *FrameChunk) Check() error { return CheckFrames(c.Frames) }

func (c *FrameChunk) BodyLen() int {
	return SizeBytes(len(c.Project)) + SizeBytes(len(c.CommandID)) + SizeBytes(len(c.WorkerID)) +
		SizeInt(c.Seq) + SizeInt(c.FirstFrame) + SizeFloats(len(c.Times)) + SizeFrames(c.Frames) +
		SizeFloats(len(c.RMSD)) + 1
}

func (c *FrameChunk) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.BodyLen()))
	b = AppendString(b, c.Project)
	b = AppendString(b, c.CommandID)
	b = AppendString(b, c.WorkerID)
	b = AppendInt(b, c.Seq)
	b = AppendInt(b, c.FirstFrame)
	b = AppendFloats(b, c.Times)
	b = AppendFrames(b, c.Frames)
	b = AppendFloats(b, c.RMSD)
	return AppendBool(b, c.Final)
}

func (c *FrameChunk) Decode(body []byte) error {
	r := Reader{b: body}
	*c = FrameChunk{
		Project:    r.Text(),
		CommandID:  r.Text(),
		WorkerID:   r.Text(),
		Seq:        r.Int(),
		FirstFrame: r.Int(),
		Times:      r.Floats(),
		Frames:     r.Frames(),
		RMSD:       r.Floats(),
		Final:      r.Bool(),
	}
	return r.err
}

// --- WorkerInfo, AnnounceRequest ---

func (w *WorkerInfo) BodyLen() int {
	return SizeBytes(len(w.ID)) + SizeBytes(len(w.Platform)) + SizeInt(w.Cores) +
		sizeStrings(w.Executables) + SizeBytes(len(w.FSToken))
}

func (w *WorkerInfo) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(w.BodyLen()))
	b = AppendString(b, w.ID)
	b = AppendString(b, w.Platform)
	b = AppendInt(b, w.Cores)
	b = appendStrings(b, w.Executables)
	return AppendString(b, w.FSToken)
}

func (w *WorkerInfo) Decode(body []byte) error {
	r := Reader{b: body}
	*w = WorkerInfo{
		ID:          r.Text(),
		Platform:    r.Text(),
		Cores:       r.Int(),
		Executables: r.strings(),
		FSToken:     r.Text(),
	}
	return r.err
}

func (a *AnnounceRequest) BodyLen() int { return SizeBytes(a.Info.BodyLen()) + 1 + 8 }

func (a *AnnounceRequest) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(a.BodyLen()))
	b = a.Info.AppendTo(b)
	b = AppendBool(b, a.Relayed)
	return AppendFloat(b, a.WaitSeconds)
}

func (a *AnnounceRequest) Decode(body []byte) error {
	r := Reader{b: body}
	*a = AnnounceRequest{}
	r.Nested(&a.Info)
	a.Relayed = r.Bool()
	a.WaitSeconds = r.Float()
	return r.err
}

// --- Workload ---

func (w *Workload) BodyLen() int {
	n := SizeUvarint(uint64(len(w.Commands)))
	for i := range w.Commands {
		n += SizeBytes(w.Commands[i].BodyLen())
	}
	n += SizeUvarint(uint64(len(w.Cores)))
	for id, cores := range w.Cores {
		n += SizeBytes(len(id)) + SizeInt(cores)
	}
	return n + 8 + 1
}

func (w *Workload) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(w.BodyLen()))
	b = binary.AppendUvarint(b, uint64(len(w.Commands)))
	for i := range w.Commands {
		b = w.Commands[i].AppendTo(b)
	}
	b = binary.AppendUvarint(b, uint64(len(w.Cores)))
	var buf [8]string // on the stack; a workload seldom holds more commands
	ids := buf[:0]
	for id := range w.Cores {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		b = AppendString(b, id)
		b = AppendInt(b, w.Cores[id])
	}
	b = AppendFloat(b, w.HeartbeatSeconds)
	return AppendBool(b, w.SharedFS)
}

// specMinBytes is the smallest CommandSpec an encoder can write into a list:
// a length byte and its twelve fields (appending fields only raises it).
const specMinBytes = 13

func (w *Workload) Decode(body []byte) error {
	r := Reader{b: body}
	*w = Workload{}
	if n := r.List(specMinBytes); n > 0 {
		w.Commands = make([]CommandSpec, n)
		for i := range w.Commands {
			r.Nested(&w.Commands[i])
		}
	}
	if n := r.count(2); n > 0 {
		// One entry per command is what a server writes; a map with more
		// grows as they arrive.
		w.Cores = make(map[string]int, min(n, len(w.Commands)))
		for i := 0; i < n; i++ {
			id := r.Text()
			if len(r.b) == 0 {
				r.fail(errTruncated) // a key without its value, or a pair short
				break
			}
			w.Cores[id] = r.Int()
		}
	}
	w.HeartbeatSeconds = r.Float()
	w.SharedFS = r.Bool()
	return r.err
}

// --- Heartbeat, HeartbeatAck, WorkerFailed ---

func (h *Heartbeat) BodyLen() int { return SizeBytes(len(h.WorkerID)) + sizeStrings(h.CommandIDs) }

func (h *Heartbeat) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(h.BodyLen()))
	b = AppendString(b, h.WorkerID)
	return appendStrings(b, h.CommandIDs)
}

func (h *Heartbeat) Decode(body []byte) error {
	r := Reader{b: body}
	*h = Heartbeat{WorkerID: r.Text(), CommandIDs: r.strings()}
	return r.err
}

func (h *HeartbeatAck) BodyLen() int { return sizeStrings(h.AbortCommandIDs) }

func (h *HeartbeatAck) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(h.BodyLen()))
	return appendStrings(b, h.AbortCommandIDs)
}

func (h *HeartbeatAck) Decode(body []byte) error {
	r := Reader{b: body}
	*h = HeartbeatAck{AbortCommandIDs: r.strings()}
	return r.err
}

func (w *WorkerFailed) BodyLen() int { return SizeBytes(len(w.WorkerID)) + sizeStrings(w.CommandIDs) }

func (w *WorkerFailed) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(w.BodyLen()))
	b = AppendString(b, w.WorkerID)
	return appendStrings(b, w.CommandIDs)
}

func (w *WorkerFailed) Decode(body []byte) error {
	r := Reader{b: body}
	*w = WorkerFailed{WorkerID: r.Text(), CommandIDs: r.strings()}
	return r.err
}
