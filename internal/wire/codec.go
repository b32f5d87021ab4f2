package wire

// The binary codec of the command round trip. The messages that cross the
// system once or more per command — Envelope, AnnounceRequest/WorkerInfo,
// Workload/CommandSpec, CommandResult, Heartbeat/HeartbeatAck, FrameChunk and
// WorkerFailed — are written by hand, append-style, into one exact-size
// buffer and decoded in place; every other type stays on gob (wire.go).
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
// workloads make equal frames. FrameChunk.Frames is count | dim | count×dim
// raw float64, which is why Marshal refuses frames of unequal or zero width.
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

// message is implemented by (pointers to) the types the binary codec knows.
type message interface {
	// bodyLen is the encoded size of the fields, without the length prefix.
	bodyLen() int
	// appendTo appends uvarint bodyLen | fields.
	appendTo(b []byte) []byte
	// decode fills the receiver from body, the bytes after the length
	// prefix. Byte-slice fields alias body.
	decode(body []byte) error
}

// hotMessage returns v as a message when the binary codec owns its type,
// given by pointer or by value; nil for the types that stay on gob.
func hotMessage(v any) message {
	switch x := v.(type) {
	case message:
		return x
	case Envelope:
		return &x
	case AnnounceRequest:
		return &x
	case WorkerInfo:
		return &x
	case Workload:
		return &x
	case CommandSpec:
		return &x
	case CommandResult:
		return &x
	case Heartbeat:
		return &x
	case HeartbeatAck:
		return &x
	case FrameChunk:
		return &x
	case WorkerFailed:
		return &x
	}
	return nil
}

// marshalMessage encodes m into one buffer of exactly the encoded size, with
// room for a frame header of headroom bytes in front.
func marshalMessage(m message, headroom int) ([]byte, error) {
	if reflect.ValueOf(m).IsNil() {
		return nil, fmt.Errorf("wire: encoding %T: nil pointer", m)
	}
	if c, ok := m.(*FrameChunk); ok {
		if err := c.checkFrames(); err != nil {
			return nil, err
		}
	}
	n := m.bodyLen()
	b := make([]byte, headroom, headroom+1+uvarintLen(uint64(n))+n)
	return m.appendTo(append(b, codecTag)), nil
}

// unmarshalMessage decodes data, the bytes after the tag, into m. data must
// hold exactly one struct.
func unmarshalMessage(data []byte, m message) error {
	if len(data) == 0 {
		return errTruncated
	}
	r := reader{b: data}
	body := r.bytes()
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d bytes after the end of the message", len(r.b))
	}
	return m.decode(body)
}

// --- encoding ---

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func sizeInt(v int) int {
	x := int64(v)
	return uvarintLen(uint64(x<<1) ^ uint64(x>>63))
}

// sizeBytes is the encoded size of a string or []byte of n bytes, and of a
// nested struct whose body is n bytes.
func sizeBytes(n int) int { return uvarintLen(uint64(n)) + n }

func sizeStrings(ss []string) int {
	n := uvarintLen(uint64(len(ss)))
	for _, s := range ss {
		n += sizeBytes(len(s))
	}
	return n
}

func sizeFloats(n int) int { return uvarintLen(uint64(n)) + 8*n }

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendFloats(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = appendFloat(b, f)
	}
	return b
}

// --- decoding ---

var errTruncated = errors.New("wire: message truncated")

// reader consumes one struct body. At the end of the body every field read
// returns the zero value — the evolution rule — while a field that starts
// and cannot finish is an error. The first error sticks and empties the
// reader, so a decode function reads all its fields and checks err once.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *reader) uvarint() uint64 {
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

func (r *reader) int() int {
	if len(r.b) == 0 {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// bytes reads a length-prefixed run and returns it as a sub-slice of the
// input (nil when empty), capped so that an append cannot reach what follows.
func (r *reader) bytes() []byte {
	n := r.uvarint()
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

func (r *reader) string() string { return string(r.bytes()) }

func (r *reader) bool() bool {
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

func (r *reader) fixed64() uint64 {
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

func (r *reader) float() float64 { return math.Float64frombits(r.fixed64()) }

// count reads a list's element count and refuses one the remaining bytes
// cannot hold at minSize bytes per element.
func (r *reader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail(fmt.Errorf("wire: count %d exceeds the %d bytes that remain", n, len(r.b)))
		return 0
	}
	return int(n)
}

// list reads the count of a list of length-prefixed elements (strings,
// structs) and finds every one of them in the body, so that the caller
// allocates for elements that are there and not for a number. The end of the
// body inside a list is a truncation, not an absent field.
func (r *reader) list(minSize int) int {
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

func (r *reader) strings() []string {
	n := r.list(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

func (r *reader) floats() []float64 {
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

// nested decodes a struct field.
func (r *reader) nested(m message) {
	if err := m.decode(r.bytes()); err != nil {
		r.fail(err)
	}
}

// --- Envelope ---

func (e *Envelope) bodyLen() int {
	return sizeInt(e.Version) + sizeBytes(len(e.Type)) + sizeBytes(len(e.From)) + sizeBytes(len(e.To)) +
		8 + 1 + sizeInt(e.TTL) + sizeBytes(len(e.Payload)) + sizeBytes(len(e.Err)) + sizeBytes(len(e.ErrCode))
}

func (e *Envelope) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(e.bodyLen()))
	b = appendInt(b, e.Version)
	b = appendString(b, string(e.Type))
	b = appendString(b, e.From)
	b = appendString(b, e.To)
	b = binary.LittleEndian.AppendUint64(b, e.RequestID)
	b = appendBool(b, e.IsReply)
	b = appendInt(b, e.TTL)
	b = appendBytes(b, e.Payload)
	b = appendString(b, e.Err)
	return appendString(b, e.ErrCode)
}

func (e *Envelope) decode(body []byte) error {
	r := reader{b: body}
	*e = Envelope{
		Version:   r.int(),
		Type:      MsgType(r.string()),
		From:      r.string(),
		To:        r.string(),
		RequestID: r.fixed64(),
		IsReply:   r.bool(),
		TTL:       r.int(),
		Payload:   r.bytes(),
		Err:       r.string(),
		ErrCode:   r.string(),
	}
	return r.err
}

// --- CommandSpec ---

func (c *CommandSpec) bodyLen() int {
	return sizeBytes(len(c.ID)) + sizeBytes(len(c.Project)) + sizeBytes(len(c.Tenant)) +
		sizeBytes(len(c.Origin)) + sizeBytes(len(c.Type)) +
		sizeInt(c.MinCores) + sizeInt(c.MaxCores) + sizeInt(c.Priority) +
		sizeBytes(len(c.Payload)) + sizeBytes(len(c.Checkpoint)) +
		sizeBytes(len(c.GangID)) + sizeInt(c.GangSize)
}

func (c *CommandSpec) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.bodyLen()))
	b = appendString(b, c.ID)
	b = appendString(b, c.Project)
	b = appendString(b, c.Tenant)
	b = appendString(b, c.Origin)
	b = appendString(b, c.Type)
	b = appendInt(b, c.MinCores)
	b = appendInt(b, c.MaxCores)
	b = appendInt(b, c.Priority)
	b = appendBytes(b, c.Payload)
	b = appendBytes(b, c.Checkpoint)
	b = appendString(b, c.GangID)
	return appendInt(b, c.GangSize)
}

func (c *CommandSpec) decode(body []byte) error {
	r := reader{b: body}
	*c = CommandSpec{
		ID:         r.string(),
		Project:    r.string(),
		Tenant:     r.string(),
		Origin:     r.string(),
		Type:       r.string(),
		MinCores:   r.int(),
		MaxCores:   r.int(),
		Priority:   r.int(),
		Payload:    r.bytes(),
		Checkpoint: r.bytes(),
		GangID:     r.string(),
		GangSize:   r.int(),
	}
	return r.err
}

// --- CommandResult ---

func (c *CommandResult) bodyLen() int {
	return sizeBytes(len(c.CommandID)) + sizeBytes(len(c.Project)) + sizeBytes(len(c.WorkerID)) +
		1 + 1 + sizeBytes(len(c.Error)) + sizeBytes(len(c.Output)) + sizeBytes(len(c.OutputPath)) +
		sizeBytes(len(c.Checkpoint)) + sizeInt(c.CoresUsed) + 8
}

func (c *CommandResult) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.bodyLen()))
	b = appendString(b, c.CommandID)
	b = appendString(b, c.Project)
	b = appendString(b, c.WorkerID)
	b = appendBool(b, c.OK)
	b = appendBool(b, c.Partial)
	b = appendString(b, c.Error)
	b = appendBytes(b, c.Output)
	b = appendString(b, c.OutputPath)
	b = appendBytes(b, c.Checkpoint)
	b = appendInt(b, c.CoresUsed)
	return appendFloat(b, c.WallSeconds)
}

func (c *CommandResult) decode(body []byte) error {
	r := reader{b: body}
	*c = CommandResult{
		CommandID:   r.string(),
		Project:     r.string(),
		WorkerID:    r.string(),
		OK:          r.bool(),
		Partial:     r.bool(),
		Error:       r.string(),
		Output:      r.bytes(),
		OutputPath:  r.string(),
		Checkpoint:  r.bytes(),
		CoresUsed:   r.int(),
		WallSeconds: r.float(),
	}
	return r.err
}

// --- FrameChunk ---

// checkFrames reports frames the count | dim | raw layout cannot carry.
func (c *FrameChunk) checkFrames() error {
	for i, f := range c.Frames {
		if len(f) == 0 || len(f) != len(c.Frames[0]) {
			return fmt.Errorf("wire: encoding *wire.FrameChunk: frame %d has %d coordinates, frame 0 has %d; frames must share one non-zero width",
				i, len(f), len(c.Frames[0]))
		}
	}
	return nil
}

// frameDim is the shared width of the chunk's frames (0 with no frames).
func (c *FrameChunk) frameDim() int {
	if len(c.Frames) == 0 {
		return 0
	}
	return len(c.Frames[0])
}

func (c *FrameChunk) bodyLen() int {
	n, dim := len(c.Frames), c.frameDim()
	return sizeBytes(len(c.Project)) + sizeBytes(len(c.CommandID)) + sizeBytes(len(c.WorkerID)) +
		sizeInt(c.Seq) + sizeInt(c.FirstFrame) + sizeFloats(len(c.Times)) +
		uvarintLen(uint64(n)) + uvarintLen(uint64(dim)) + 8*n*dim +
		sizeFloats(len(c.RMSD)) + 1
}

func (c *FrameChunk) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.bodyLen()))
	b = appendString(b, c.Project)
	b = appendString(b, c.CommandID)
	b = appendString(b, c.WorkerID)
	b = appendInt(b, c.Seq)
	b = appendInt(b, c.FirstFrame)
	b = appendFloats(b, c.Times)
	b = binary.AppendUvarint(b, uint64(len(c.Frames)))
	b = binary.AppendUvarint(b, uint64(c.frameDim()))
	for _, frame := range c.Frames {
		for _, x := range frame {
			b = appendFloat(b, x)
		}
	}
	b = appendFloats(b, c.RMSD)
	return appendBool(b, c.Final)
}

func (c *FrameChunk) decode(body []byte) error {
	r := reader{b: body}
	*c = FrameChunk{
		Project:    r.string(),
		CommandID:  r.string(),
		WorkerID:   r.string(),
		Seq:        r.int(),
		FirstFrame: r.int(),
		Times:      r.floats(),
		Frames:     r.frames(),
		RMSD:       r.floats(),
		Final:      r.bool(),
	}
	return r.err
}

// frames reads count | dim | raw. The frames share one backing array, each
// capped at its own width.
func (r *reader) frames() [][]float64 {
	n, dim := r.uvarint(), r.uvarint()
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

// --- WorkerInfo, AnnounceRequest ---

func (w *WorkerInfo) bodyLen() int {
	return sizeBytes(len(w.ID)) + sizeBytes(len(w.Platform)) + sizeInt(w.Cores) +
		sizeStrings(w.Executables) + sizeBytes(len(w.FSToken))
}

func (w *WorkerInfo) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(w.bodyLen()))
	b = appendString(b, w.ID)
	b = appendString(b, w.Platform)
	b = appendInt(b, w.Cores)
	b = appendStrings(b, w.Executables)
	return appendString(b, w.FSToken)
}

func (w *WorkerInfo) decode(body []byte) error {
	r := reader{b: body}
	*w = WorkerInfo{
		ID:          r.string(),
		Platform:    r.string(),
		Cores:       r.int(),
		Executables: r.strings(),
		FSToken:     r.string(),
	}
	return r.err
}

func (a *AnnounceRequest) bodyLen() int { return sizeBytes(a.Info.bodyLen()) + 1 + 8 }

func (a *AnnounceRequest) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(a.bodyLen()))
	b = a.Info.appendTo(b)
	b = appendBool(b, a.Relayed)
	return appendFloat(b, a.WaitSeconds)
}

func (a *AnnounceRequest) decode(body []byte) error {
	r := reader{b: body}
	*a = AnnounceRequest{}
	r.nested(&a.Info)
	a.Relayed = r.bool()
	a.WaitSeconds = r.float()
	return r.err
}

// --- Workload ---

func (w *Workload) bodyLen() int {
	n := uvarintLen(uint64(len(w.Commands)))
	for i := range w.Commands {
		n += sizeBytes(w.Commands[i].bodyLen())
	}
	n += uvarintLen(uint64(len(w.Cores)))
	for id, cores := range w.Cores {
		n += sizeBytes(len(id)) + sizeInt(cores)
	}
	return n + 8 + 1
}

func (w *Workload) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(w.bodyLen()))
	b = binary.AppendUvarint(b, uint64(len(w.Commands)))
	for i := range w.Commands {
		b = w.Commands[i].appendTo(b)
	}
	b = binary.AppendUvarint(b, uint64(len(w.Cores)))
	var buf [8]string // on the stack; a workload seldom holds more commands
	ids := buf[:0]
	for id := range w.Cores {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		b = appendString(b, id)
		b = appendInt(b, w.Cores[id])
	}
	b = appendFloat(b, w.HeartbeatSeconds)
	return appendBool(b, w.SharedFS)
}

// specMinBytes is the smallest CommandSpec an encoder can write into a list:
// a length byte and its twelve fields (appending fields only raises it).
const specMinBytes = 13

func (w *Workload) decode(body []byte) error {
	r := reader{b: body}
	*w = Workload{}
	if n := r.list(specMinBytes); n > 0 {
		w.Commands = make([]CommandSpec, n)
		for i := range w.Commands {
			r.nested(&w.Commands[i])
		}
	}
	if n := r.count(2); n > 0 {
		// One entry per command is what a server writes; a map with more
		// grows as they arrive.
		w.Cores = make(map[string]int, min(n, len(w.Commands)))
		for i := 0; i < n; i++ {
			id := r.string()
			if len(r.b) == 0 {
				r.fail(errTruncated) // a key without its value, or a pair short
				break
			}
			w.Cores[id] = r.int()
		}
	}
	w.HeartbeatSeconds = r.float()
	w.SharedFS = r.bool()
	return r.err
}

// --- Heartbeat, HeartbeatAck, WorkerFailed ---

func (h *Heartbeat) bodyLen() int { return sizeBytes(len(h.WorkerID)) + sizeStrings(h.CommandIDs) }

func (h *Heartbeat) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(h.bodyLen()))
	b = appendString(b, h.WorkerID)
	return appendStrings(b, h.CommandIDs)
}

func (h *Heartbeat) decode(body []byte) error {
	r := reader{b: body}
	*h = Heartbeat{WorkerID: r.string(), CommandIDs: r.strings()}
	return r.err
}

func (h *HeartbeatAck) bodyLen() int { return sizeStrings(h.AbortCommandIDs) }

func (h *HeartbeatAck) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(h.bodyLen()))
	return appendStrings(b, h.AbortCommandIDs)
}

func (h *HeartbeatAck) decode(body []byte) error {
	r := reader{b: body}
	*h = HeartbeatAck{AbortCommandIDs: r.strings()}
	return r.err
}

func (w *WorkerFailed) bodyLen() int { return sizeBytes(len(w.WorkerID)) + sizeStrings(w.CommandIDs) }

func (w *WorkerFailed) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(w.bodyLen()))
	b = appendString(b, w.WorkerID)
	return appendStrings(b, w.CommandIDs)
}

func (w *WorkerFailed) decode(body []byte) error {
	r := reader{b: body}
	*w = WorkerFailed{WorkerID: r.string(), CommandIDs: r.strings()}
	return r.err
}
