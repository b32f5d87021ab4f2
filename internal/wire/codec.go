package wire

// The binary codec. It writes every struct the same way, from the struct's
// declaration: no type carries an encoder of its own. For each struct type a
// plan is built once by reflection — its exported fields in declaration
// order, each with the encoding its Go type picks — and one interpreter
// sizes, appends and decodes every plan. The types Marshal writes in this
// codec are the registered ones (Register): this package's messages of the
// command round trip, the engines' payloads, outputs and checkpoints
// (internal/engines), and the store's WAL records and snapshots
// (internal/store, through AppendStruct, EncodeStruct and DecodeStruct).
// Every other type stays on gob (wire.go).
//
// Layout. A Marshal result is the tag byte 0x00 followed by one struct. No
// gob stream starts with 0x00 (a gob message opens with its non-zero
// length), which is how Unmarshal tells the two apart, and how bytes written
// before this codec existed are still read. Every struct is
//
//	uvarint bodyLen | fields in declaration order
//
// Declaration order is the format. A field is only ever appended to a struct,
// never moved, removed or retyped; testdata/shapes.golden holds every coded
// type's fields and refuses any other change. A decoder that finds the body
// ended before a field leaves that field and all later ones zero; a decoder
// that has filled the last field it knows skips what is left of the body.
// Inside a list nothing is optional: a count that promises more elements
// than the body holds is an error.
//
// Field encodings, by Go type (named types by their underlying kind):
//
//	int, int64          zigzag varint
//	uint64              uvarint; with the tag `wire:"fixed64"`, 8 bytes
//	                    little-endian (Envelope.RequestID, the one such field)
//	uint8               uvarint, refused above 255 when decoded
//	float64             8 bytes little-endian
//	bool                one byte, 0 or 1
//	string, []byte      uvarint length | bytes
//	[]string, []float64 uvarint count | elements
//	[][]float64         frames: uvarint count | uvarint dim | count×dim
//	                    float64s, so frames must share one non-zero width
//	map[string]int      uvarint count | (key, int) pairs in sorted key order,
//	                    so equal values make equal bytes
//	struct, []struct    a struct as above; a list of them after its count
//
// An empty list, map or byte run decodes as nil. Any other field type is a
// programming error that Register reports when the program starts.
//
// Hostile input: nothing is allocated on a length's or a count's word. Every
// length is checked against the bytes that remain; a list's count is checked
// against them too (count ≤ remaining / smallest element an encoder can
// write, which the plan derives from the element's fields) and its elements
// are then found in the body, one by one, before the list or map is
// allocated. What decoding allocates is therefore the in-memory size of what
// the input really holds — a small multiple of the input, not its size,
// because a 16-byte string header, a 176-byte CommandSpec or a map slot can
// each be spelled in a few bytes. Truncated, over-long and trailing bytes are
// errors, never panics.

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

// DecodeAllocLimit bounds what decoding n bytes of binary-coded input may
// allocate: the in-memory size of the costliest thing n bytes can spell, plus
// room for the error value and a test process's own noise. A list of empty
// strings costs 16 bytes of header per input byte, a list of the smallest
// CommandSpecs 176 bytes per 13, and Workload.Cores under two-letter keys
// some 14 per byte (map slots). The decoders' tests and fuzz targets hold
// every decode to it.
func DecodeAllocLimit(n int) uint64 { return uint64(40*n) + 16<<10 }

// --- plans ---

// op is a field's encoding.
type op uint8

const (
	opInt     op = iota // int, int64
	opUint              // uint64
	opByte              // uint8
	opFixed64           // uint64 tagged fixed64
	opFloat             // float64
	opBool              // bool
	opString            // string
	opBytes             // []byte
	opStrings           // []string
	opFloats            // []float64
	opFrames            // [][]float64
	opCounts            // map[string]int
	opStruct            // struct
	opStructs           // []struct
)

type field struct {
	name  string
	op    op
	index int
	elem  *plan // the nested struct's plan, for opStruct and opStructs
}

// plan is how one struct type is coded.
type plan struct {
	typ    reflect.Type
	fields []field
	// min is the smallest encoding of the struct, its length prefix
	// included: a list's count is checked against it.
	min int
	// frames is set when the struct holds a frames field, itself or nested.
	frames bool
}

var (
	typeStrings = reflect.TypeFor[[]string]()
	typeFloats  = reflect.TypeFor[[]float64]()
	typeFrames  = reflect.TypeFor[[][]float64]()
	typeCounts  = reflect.TypeFor[map[string]int]()
)

// buildPlan makes t's plan. Nested types reuse their registered plan.
func buildPlan(t reflect.Type) (*plan, error) {
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("wire: %v is not a struct", t)
	}
	p := &plan{typ: t, min: 1}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue // as gob
		}
		f := field{name: sf.Name, index: i}
		switch ft := sf.Type; {
		case sf.Tag.Get("wire") == "fixed64" && ft.Kind() == reflect.Uint64:
			f.op = opFixed64
		case sf.Tag.Get("wire") != "":
			return nil, fmt.Errorf("wire: %v.%s: unknown tag %q", t, sf.Name, sf.Tag.Get("wire"))
		case ft.Kind() == reflect.Int || ft.Kind() == reflect.Int64:
			f.op = opInt
		case ft.Kind() == reflect.Uint64:
			f.op = opUint
		case ft.Kind() == reflect.Uint8:
			f.op = opByte
		case ft.Kind() == reflect.Float64:
			f.op = opFloat
		case ft.Kind() == reflect.Bool:
			f.op = opBool
		case ft.Kind() == reflect.String:
			f.op = opString
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Uint8:
			f.op = opBytes
		case ft == typeStrings:
			f.op = opStrings
		case ft == typeFloats:
			f.op = opFloats
		case ft == typeFrames:
			f.op, p.frames = opFrames, true
		case ft == typeCounts:
			f.op = opCounts
		case ft.Kind() == reflect.Struct || ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct:
			f.op = opStruct
			if ft.Kind() == reflect.Slice {
				f.op, ft = opStructs, ft.Elem()
			}
			var err error
			if f.elem, err = planOf(ft); err != nil {
				return nil, err
			}
			p.frames = p.frames || f.elem.frames
		default:
			return nil, fmt.Errorf("wire: %v.%s: no encoding for %v", t, sf.Name, ft)
		}
		switch f.op {
		case opFixed64, opFloat:
			p.min += 8
		case opFrames:
			p.min += 2
		case opStruct:
			p.min += f.elem.min
		default:
			p.min++
		}
		p.fields = append(p.fields, f)
	}
	return p, nil
}

// registry maps every registered type to its plan. Register fills it while
// the program's packages initialise; it is only read after.
var registry = map[reflect.Type]*plan{}

// Register adds the struct types of vs, given as values, to the types
// Marshal writes in the binary codec. A package registers its types once, in
// an init function; a type the codec cannot carry panics there.
func Register(vs ...any) {
	for _, v := range vs {
		t := reflect.TypeOf(v)
		p, err := buildPlan(t)
		if err != nil {
			panic(err)
		}
		registry[t] = p
	}
}

func init() {
	Register(Envelope{}, CommandSpec{}, CommandResult{}, FrameChunk{}, WorkerInfo{}, AnnounceRequest{},
		Workload{}, Heartbeat{}, HeartbeatAck{}, WorkerFailed{})
}

// registered returns the plan of t, or of the type t points to, if that type
// is registered; nil if not.
func registered(t reflect.Type) *plan {
	if t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return registry[t]
}

// planOf returns t's plan: the registered one, or one built for the call.
func planOf(t reflect.Type) (*plan, error) {
	if p := registry[t]; p != nil {
		return p, nil
	}
	return buildPlan(t)
}

// --- encoding ---

// EncodeStruct encodes *v, a struct, as one struct — uvarint bodyLen |
// fields, without the tag — after headroom zero bytes, into one buffer of
// exactly that size. Any struct type the encodings cover will do; only a
// registered type's plan is kept.
func EncodeStruct(v any, headroom int) ([]byte, error) { return AppendStruct(nil, v, headroom) }

// AppendStruct is EncodeStruct appending to dst, for a single writer that
// reuses one buffer: dst is grown only when it lacks the room.
func AppendStruct(dst []byte, v any, headroom int) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		// reflect.TypeOf, not %T: handing v to fmt would move every value
		// encoded to the heap.
		return nil, fmt.Errorf("wire: encoding %v: not a pointer to a struct", reflect.TypeOf(v))
	}
	return encode(dst, rv.Elem(), headroom)
}

// encode, the one encoding routine, appends headroom zero bytes and then v,
// an addressable struct, to dst. A dst without the room is copied into one
// buffer of exactly the size needed: a nil dst costs one exact-size
// allocation, a reused buffer that is big enough none.
func encode(dst []byte, v reflect.Value, headroom int) ([]byte, error) {
	p, err := planOf(v.Type())
	if err != nil {
		return nil, err
	}
	if p.frames {
		if err := p.checkFrames(v); err != nil {
			return nil, fmt.Errorf("wire: encoding %v: %w", v.Type(), err)
		}
	}
	n := p.size(v)
	need := headroom + sizeUvarint(uint64(n)) + n
	if cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	b := dst[:len(dst)+headroom] // within cap: the check above made room
	clear(b[len(dst):])
	out := p.appendFields(binary.AppendUvarint(b, uint64(n)), v)
	if len(out) != len(dst)+need {
		return nil, fmt.Errorf("wire: encoding %v: sized %d bytes, wrote %d", v.Type(), need, len(out)-len(dst))
	}
	return out, nil
}

// fieldPtr returns the address of fv, an addressable field of type T.
// fv.Addr().Interface().(*T) says the same, but handing the value to
// Interface moves every struct the codec touches to the heap.
func fieldPtr[T any](fv reflect.Value) *T { return (*T)(fv.Addr().UnsafePointer()) }

func sizeUvarint(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func sizeVarint(x int64) int { return sizeUvarint(uint64(x<<1) ^ uint64(x>>63)) }

func sizeBytes(n int) int { return sizeUvarint(uint64(n)) + n }

// size is the encoded size of v's fields, without the length prefix.
func (p *plan) size(v reflect.Value) int {
	n := 0
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.Field(f.index)
		switch f.op {
		case opInt:
			n += sizeVarint(fv.Int())
		case opUint, opByte:
			n += sizeUvarint(fv.Uint())
		case opFixed64, opFloat:
			n += 8
		case opBool:
			n++
		case opString, opBytes:
			n += sizeBytes(fv.Len())
		case opStrings:
			n += sizeUvarint(uint64(fv.Len()))
			for _, s := range *fieldPtr[[]string](fv) {
				n += sizeBytes(len(s))
			}
		case opFloats:
			n += sizeUvarint(uint64(fv.Len())) + 8*fv.Len()
		case opFrames:
			frames := *fieldPtr[[][]float64](fv)
			dim := frameDim(frames)
			n += sizeUvarint(uint64(len(frames))) + sizeUvarint(uint64(dim)) + 8*len(frames)*dim
		case opCounts:
			m := *fieldPtr[map[string]int](fv)
			n += sizeUvarint(uint64(len(m)))
			for k, c := range m {
				n += sizeBytes(len(k)) + sizeVarint(int64(c))
			}
		case opStruct:
			n += sizeBytes(f.elem.size(fv))
		case opStructs:
			n += sizeUvarint(uint64(fv.Len()))
			for j := 0; j < fv.Len(); j++ {
				n += sizeBytes(f.elem.size(fv.Index(j)))
			}
		}
	}
	return n
}

// appendFields appends v's fields, p.size(v) bytes.
func (p *plan) appendFields(b []byte, v reflect.Value) []byte {
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.Field(f.index)
		switch f.op {
		case opInt:
			b = binary.AppendVarint(b, fv.Int())
		case opUint, opByte:
			b = binary.AppendUvarint(b, fv.Uint())
		case opFixed64:
			b = binary.LittleEndian.AppendUint64(b, fv.Uint())
		case opFloat:
			b = appendFloat(b, fv.Float())
		case opBool:
			b = appendBool(b, fv.Bool())
		case opString:
			b = appendString(b, fv.String())
		case opBytes:
			b = appendBytes(b, fv.Bytes())
		case opStrings:
			ss := *fieldPtr[[]string](fv)
			b = binary.AppendUvarint(b, uint64(len(ss)))
			for _, s := range ss {
				b = appendString(b, s)
			}
		case opFloats:
			b = appendFloats(binary.AppendUvarint(b, uint64(fv.Len())), *fieldPtr[[]float64](fv))
		case opFrames:
			frames := *fieldPtr[[][]float64](fv)
			b = binary.AppendUvarint(b, uint64(len(frames)))
			b = binary.AppendUvarint(b, uint64(frameDim(frames)))
			for _, frame := range frames {
				b = appendFloats(b, frame)
			}
		case opCounts:
			m := *fieldPtr[map[string]int](fv)
			b = binary.AppendUvarint(b, uint64(len(m)))
			var buf [8]string // on the stack; a map seldom holds more keys
			keys := buf[:0]
			for k := range m {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				b = binary.AppendVarint(appendString(b, k), int64(m[k]))
			}
		case opStruct:
			b = f.elem.appendFields(binary.AppendUvarint(b, uint64(f.elem.size(fv))), fv)
		case opStructs:
			b = binary.AppendUvarint(b, uint64(fv.Len()))
			for j := 0; j < fv.Len(); j++ {
				ev := fv.Index(j)
				b = f.elem.appendFields(binary.AppendUvarint(b, uint64(f.elem.size(ev))), ev)
			}
		}
	}
	return b
}

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

func appendFloats(b []byte, fs []float64) []byte {
	for _, f := range fs {
		b = appendFloat(b, f)
	}
	return b
}

// frameDim is the shared width of frames (0 with no frames).
func frameDim(frames [][]float64) int {
	if len(frames) == 0 {
		return 0
	}
	return len(frames[0])
}

// checkFrames reports frames the count | dim | raw layout cannot carry.
func (p *plan) checkFrames(v reflect.Value) error {
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.Field(f.index)
		switch {
		case f.op == opFrames:
			frames := *fieldPtr[[][]float64](fv)
			for j, fr := range frames {
				if len(fr) == 0 || len(fr) != len(frames[0]) {
					return fmt.Errorf("%s: frame %d has %d coordinates, frame 0 has %d; frames must share one non-zero width",
						f.name, j, len(fr), len(frames[0]))
				}
			}
		case f.op == opStruct && f.elem.frames:
			if err := f.elem.checkFrames(fv); err != nil {
				return err
			}
		case f.op == opStructs && f.elem.frames:
			for j := 0; j < fv.Len(); j++ {
				if err := f.elem.checkFrames(fv.Index(j)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// --- decoding ---

var errTruncated = errors.New("wire: message truncated")

// DecodeStruct decodes data, one struct as EncodeStruct wrote it, into v, a
// pointer to a struct. Bytes after the struct are an error. Byte-slice fields
// alias data, as under Unmarshal.
func DecodeStruct(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: decoding into %v, not a pointer to a struct", reflect.TypeOf(v))
	}
	p, err := planOf(rv.Type().Elem())
	if err != nil {
		return err
	}
	return decode(data, p, rv.Elem())
}

// decode is DecodeStruct with the plan found, and Unmarshal after the tag.
func decode(data []byte, p *plan, v reflect.Value) error {
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
	v.SetZero()
	r = reader{b: body}
	r.decode(p, v)
	return r.err
}

// reader consumes one struct body. At the end of the body every field read
// returns the zero value — the evolution rule — while a field that starts
// and cannot finish is an error. The first error sticks and empties the
// reader.
type reader struct {
	b   []byte
	err error
}

// decode fills v, a zero struct of p's type, from the body.
func (r *reader) decode(p *plan, v reflect.Value) {
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.Field(f.index)
		switch f.op {
		case opInt:
			fv.SetInt(r.varint())
		case opUint:
			fv.SetUint(r.uvarint())
		case opByte:
			if x := r.uvarint(); x <= math.MaxUint8 {
				fv.SetUint(x)
			} else {
				r.fail(fmt.Errorf("wire: %v.%s is %d, more than a byte holds", p.typ, f.name, x))
			}
		case opFixed64:
			fv.SetUint(r.fixed64())
		case opFloat:
			fv.SetFloat(math.Float64frombits(r.fixed64()))
		case opBool:
			fv.SetBool(r.bool())
		case opString:
			fv.SetString(string(r.bytes()))
		case opBytes:
			fv.SetBytes(r.bytes())
		case opStrings:
			*fieldPtr[[]string](fv) = r.strings()
		case opFloats:
			*fieldPtr[[]float64](fv) = r.floats()
		case opFrames:
			*fieldPtr[[][]float64](fv) = r.frames()
		case opCounts:
			*fieldPtr[map[string]int](fv) = r.counts()
		case opStruct:
			r.nested(f.elem, fv)
		case opStructs:
			if n := r.list(f.elem.min); n > 0 {
				fv.Grow(n)
				fv.SetLen(n)
				for j := 0; j < n; j++ {
					r.nested(f.elem, fv.Index(j))
				}
			}
		}
	}
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// nested decodes a struct field into v.
func (r *reader) nested(p *plan, v reflect.Value) {
	sub := reader{b: r.bytes()}
	sub.decode(p, v)
	if sub.err != nil {
		r.fail(sub.err)
	}
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

func (r *reader) varint() int64 {
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

// bytes reads a length-prefixed field and returns it as a sub-slice of the
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
		out[i] = string(r.bytes())
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

// frames reads a frames field, count | dim | raw. The frames share one
// backing array, each capped at its own width.
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

// counts reads a map[string]int field. Like a list's elements, its pairs are
// found in the body before the map is made.
func (r *reader) counts() map[string]int {
	n := r.count(2)
	rest := r.b
	for i := 0; i < n; i++ {
		size, k := binary.Uvarint(rest)
		if k <= 0 || size >= uint64(len(rest)-k) { // a key needs a value after it
			r.fail(errTruncated)
			return nil
		}
		rest = rest[k+int(size):]
		if _, k = binary.Varint(rest); k <= 0 {
			r.fail(errTruncated)
			return nil
		}
		rest = rest[k:]
	}
	if n == 0 {
		return nil
	}
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := string(r.bytes())
		m[k] = int(r.varint())
	}
	return m
}
