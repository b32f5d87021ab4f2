package store

// The on-disk format of WAL segments and snapshots.
//
// A segment is its 8-byte magic followed by frames, one per record:
//
//	[4-byte length][4-byte CRC32C][body]
//
// and a snapshot file is its magic followed by one such frame. The length and
// the checksum are big-endian and cover the body alone. The magic's trailing
// digit is the body's format:
//
//	CPCWAL02, CPCSNAP2  the binary codec of internal/wire (codec.go): the body
//	                    is one struct, uvarint bodyLen | fields in declaration
//	                    order, fields only ever appended
//	CPCWAL01, CPCSNAP1  gob, as builds before the binary codec wrote it
//
// This build writes only the binary format and reads both. A segment holds
// one format, because every Open rotates to a fresh segment, so the reader
// picks its decoder by the magic. Builds that read only gob refuse a binary
// segment as "not a WAL segment" instead of taking it for a torn tail.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"copernicus/internal/wire"
)

// segMagic opens every WAL segment this build writes and snapMagic every
// snapshot file; the Gob magics open the files older builds wrote.
var (
	segMagic     = []byte("CPCWAL02")
	snapMagic    = []byte("CPCSNAP2")
	segMagicGob  = []byte("CPCWAL01")
	snapMagicGob = []byte("CPCSNAP1")
)

// frameHeaderLen is the size of a frame's [length][CRC32C] header.
const frameHeaderLen = 8

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the checksum used by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecordBytes bounds a single WAL frame; larger lengths are treated as
// corruption rather than allocated blindly (mirrors wire.MaxFrameBytes).
const maxRecordBytes = 1 << 30

// seal writes the header at out[at:] for the body that follows it.
func seal(out []byte, at int) {
	body := out[at+frameHeaderLen:]
	binary.BigEndian.PutUint32(out[at:], uint32(len(body)))
	binary.BigEndian.PutUint32(out[at+4:], crc32.Checksum(body, castagnoli))
}

// encodeFrame renders one record as a frame, into one buffer of exactly the
// frame's size with the header written in place.
func encodeFrame(rec *Record) ([]byte, error) {
	n := wire.SizeBytes(rec.BodyLen())
	if n > maxRecordBytes {
		return nil, fmt.Errorf("store: record of %d bytes exceeds the %d-byte frame limit", n, maxRecordBytes)
	}
	frame := rec.AppendTo(make([]byte, frameHeaderLen, frameHeaderLen+n))
	seal(frame, 0)
	return frame, nil
}

// readSegmentFile reads one segment, returning its records and a torn-tail
// description.
func readSegmentFile(path string) ([]Record, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	if len(data) < len(segMagic) {
		return nil, fmt.Sprintf("segment shorter than its magic: %d bytes", len(data)), nil
	}
	var decode func([]byte) (Record, error)
	switch magic := data[:len(segMagic)]; {
	case bytes.Equal(magic, segMagic):
		decode = decodeRecord
	case bytes.Equal(magic, segMagicGob):
		decode = decodeGobRecord
	default:
		return nil, "", fmt.Errorf("store: %s is not a WAL segment", path)
	}
	recs, torn := readRecords(data[len(segMagic):], decode)
	return recs, torn, nil
}

// readRecords decodes every intact frame of data, a segment's bytes after its
// magic. A short or corrupt final frame sets torn and stops; it is not an
// error (an unacknowledged append interrupted by a crash looks exactly like
// this). Every length is checked against the bytes that are there, so
// nothing is allocated on a length word's say-so.
func readRecords(data []byte, decode func([]byte) (Record, error)) (recs []Record, torn string) {
	offset := len(segMagic)
	for len(data) > 0 {
		if len(data) < frameHeaderLen {
			return recs, fmt.Sprintf("torn frame header at offset %d: %d of %d bytes", offset, len(data), frameHeaderLen)
		}
		n := binary.BigEndian.Uint32(data[0:4])
		want := binary.BigEndian.Uint32(data[4:8])
		if n > maxRecordBytes {
			return recs, fmt.Sprintf("implausible frame length %d at offset %d", n, offset)
		}
		if rest := len(data) - frameHeaderLen; int(n) > rest {
			return recs, fmt.Sprintf("torn frame body at offset %d: %d of %d bytes", offset, rest, n)
		}
		payload := data[frameHeaderLen : frameHeaderLen+int(n)]
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return recs, fmt.Sprintf("CRC mismatch at offset %d: got %08x want %08x", offset, got, want)
		}
		rec, err := decode(payload)
		if err != nil {
			return recs, fmt.Sprintf("undecodable record at offset %d: %v", offset, err)
		}
		recs = append(recs, rec)
		data = data[frameHeaderLen+int(n):]
		offset += frameHeaderLen + int(n)
	}
	return recs, ""
}

// decodeRecord decodes a binary frame body. The record's Data aliases what
// is decoded, so it decodes a copy: a record pins its own frame, not the
// segment image it was read from.
func decodeRecord(payload []byte) (rec Record, err error) {
	err = wire.DecodeMessage(bytes.Clone(payload), &rec)
	return rec, err
}

// decodeGobRecord decodes a frame body an older build wrote; gob copies what
// it keeps.
func decodeGobRecord(payload []byte) (rec Record, err error) {
	err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec)
	return rec, err
}

// encodeSnapshot renders a snapshot file, magic and frame, into one buffer of
// exactly the file's size.
func encodeSnapshot(snap *Snapshot) []byte {
	hdr := len(snapMagic) + frameHeaderLen
	out := make([]byte, hdr, hdr+wire.SizeBytes(snap.BodyLen()))
	copy(out, snapMagic)
	out = snap.AppendTo(out)
	seal(out, len(snapMagic))
	return out
}

// decodeSnapshot parses and CRC-verifies a snapshot file of either format. A
// binary snapshot's byte fields alias data.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	hdr := len(snapMagic) + frameHeaderLen
	if len(data) < hdr {
		return nil, errors.New("store: not a snapshot file")
	}
	magic := data[:len(snapMagic)]
	legacy := bytes.Equal(magic, snapMagicGob)
	if !legacy && !bytes.Equal(magic, snapMagic) {
		return nil, errors.New("store: not a snapshot file")
	}
	n := binary.BigEndian.Uint32(data[len(snapMagic):])
	want := binary.BigEndian.Uint32(data[len(snapMagic)+4:])
	payload := data[hdr:]
	if uint64(len(payload)) != uint64(n) {
		return nil, fmt.Errorf("store: snapshot length %d, header says %d", len(payload), n)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("store: snapshot CRC mismatch: got %08x want %08x", got, want)
	}
	var snap Snapshot
	var err error
	if legacy {
		err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap)
	} else {
		err = wire.DecodeMessage(payload, &snap)
	}
	if err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	return &snap, nil
}

// --- the binary bodies (wire.Message) ---

// Smallest encodings an encoder can write of a list element, its length
// byte included; a list's count is checked against them (wire.Reader.List).
// Appending fields only raises them.
const (
	// the length byte and fourteen fields
	projectSnapMinBytes = 1 + 14
	// the length byte, a CommandSpec of at least 13 bytes and six fields
	commandSnapMinBytes = 1 + 13 + 6
	// the length byte, three 8-byte floats and seven more fields
	tenantSnapMinBytes = 1 + 3*8 + 7
)

func (rec *Record) BodyLen() int {
	return wire.SizeUvarint(rec.Seq) + wire.SizeVarint(rec.Time) + wire.SizeUvarint(uint64(rec.Type)) +
		wire.SizeBytes(len(rec.Project)) + wire.SizeBytes(len(rec.Command)) + wire.SizeBytes(len(rec.Worker)) +
		wire.SizeBytes(len(rec.Tenant)) + wire.SizeInt(rec.Generation) + wire.SizeInt(rec.Count) +
		wire.SizeBytes(len(rec.Note)) + wire.SizeBytes(len(rec.Data))
}

func (rec *Record) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(rec.BodyLen()))
	b = binary.AppendUvarint(b, rec.Seq)
	b = binary.AppendVarint(b, rec.Time)
	b = binary.AppendUvarint(b, uint64(rec.Type))
	b = wire.AppendString(b, rec.Project)
	b = wire.AppendString(b, rec.Command)
	b = wire.AppendString(b, rec.Worker)
	b = wire.AppendString(b, rec.Tenant)
	b = wire.AppendInt(b, rec.Generation)
	b = wire.AppendInt(b, rec.Count)
	b = wire.AppendString(b, rec.Note)
	return wire.AppendBytes(b, rec.Data)
}

func (rec *Record) Decode(body []byte) error {
	r := wire.NewReader(body)
	seq, at, typ := r.Uvarint(), r.Varint(), r.Uvarint()
	*rec = Record{
		Seq:        seq,
		Time:       at,
		Type:       RecordType(typ),
		Project:    r.Text(),
		Command:    r.Text(),
		Worker:     r.Text(),
		Tenant:     r.Text(),
		Generation: r.Int(),
		Count:      r.Int(),
		Note:       r.Text(),
		Data:       r.Bytes(),
	}
	if typ > math.MaxUint8 && r.Err() == nil {
		return fmt.Errorf("store: record type %d", typ)
	}
	return r.Err()
}

func (s *Snapshot) BodyLen() int {
	n := wire.SizeVarint(s.TakenAt) + wire.SizeUvarint(s.LastSeq) +
		wire.SizeUvarint(uint64(len(s.Projects))) + wire.SizeUvarint(uint64(len(s.Tenants)))
	for i := range s.Projects {
		n += wire.SizeBytes(s.Projects[i].BodyLen())
	}
	for i := range s.Tenants {
		n += wire.SizeBytes((*tenantSnap)(&s.Tenants[i]).BodyLen())
	}
	return n
}

func (s *Snapshot) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(s.BodyLen()))
	b = binary.AppendVarint(b, s.TakenAt)
	b = binary.AppendUvarint(b, s.LastSeq)
	b = binary.AppendUvarint(b, uint64(len(s.Projects)))
	for i := range s.Projects {
		b = s.Projects[i].AppendTo(b)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Tenants)))
	for i := range s.Tenants {
		b = (*tenantSnap)(&s.Tenants[i]).AppendTo(b)
	}
	return b
}

func (s *Snapshot) Decode(body []byte) error {
	r := wire.NewReader(body)
	*s = Snapshot{TakenAt: r.Varint(), LastSeq: r.Uvarint()}
	if n := r.List(projectSnapMinBytes); n > 0 {
		s.Projects = make([]ProjectSnap, n)
		for i := range s.Projects {
			r.Nested(&s.Projects[i])
		}
	}
	if n := r.List(tenantSnapMinBytes); n > 0 {
		s.Tenants = make([]wire.TenantStatus, n)
		for i := range s.Tenants {
			r.Nested((*tenantSnap)(&s.Tenants[i]))
		}
	}
	return r.Err()
}

func (p *ProjectSnap) BodyLen() int {
	n := wire.SizeBytes(len(p.Name)) + wire.SizeBytes(len(p.Controller)) + wire.SizeBytes(len(p.Tenant)) +
		wire.SizeInt(p.Priority) + wire.SizeBytes(len(p.State)) + wire.SizeInt(p.Generation) +
		wire.SizeBytes(len(p.Note)) + wire.SizeBytes(len(p.FailErr)) + wire.SizeBytes(len(p.Result)) +
		wire.SizeInt(p.Finished) + wire.SizeInt(p.Failed) + wire.SizeUvarint(p.Seed) +
		wire.SizeBytes(len(p.CtrlState)) + wire.SizeUvarint(uint64(len(p.Commands)))
	for i := range p.Commands {
		n += wire.SizeBytes(p.Commands[i].BodyLen())
	}
	return n
}

func (p *ProjectSnap) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(p.BodyLen()))
	b = wire.AppendString(b, p.Name)
	b = wire.AppendString(b, p.Controller)
	b = wire.AppendString(b, p.Tenant)
	b = wire.AppendInt(b, p.Priority)
	b = wire.AppendString(b, p.State)
	b = wire.AppendInt(b, p.Generation)
	b = wire.AppendString(b, p.Note)
	b = wire.AppendString(b, p.FailErr)
	b = wire.AppendBytes(b, p.Result)
	b = wire.AppendInt(b, p.Finished)
	b = wire.AppendInt(b, p.Failed)
	b = binary.AppendUvarint(b, p.Seed)
	b = wire.AppendBytes(b, p.CtrlState)
	b = binary.AppendUvarint(b, uint64(len(p.Commands)))
	for i := range p.Commands {
		b = p.Commands[i].AppendTo(b)
	}
	return b
}

func (p *ProjectSnap) Decode(body []byte) error {
	r := wire.NewReader(body)
	*p = ProjectSnap{
		Name:       r.Text(),
		Controller: r.Text(),
		Tenant:     r.Text(),
		Priority:   r.Int(),
		State:      r.Text(),
		Generation: r.Int(),
		Note:       r.Text(),
		FailErr:    r.Text(),
		Result:     r.Bytes(),
		Finished:   r.Int(),
		Failed:     r.Int(),
		Seed:       r.Uvarint(),
		CtrlState:  r.Bytes(),
	}
	if n := r.List(commandSnapMinBytes); n > 0 {
		p.Commands = make([]CommandSnap, n)
		for i := range p.Commands {
			r.Nested(&p.Commands[i])
		}
	}
	return r.Err()
}

func (c *CommandSnap) BodyLen() int {
	return wire.SizeBytes(c.Spec.BodyLen()) + wire.SizeInt(c.Status) + wire.SizeBytes(len(c.Worker)) +
		wire.SizeInt(c.Retries) + wire.SizeBytes(len(c.Checkpoint)) + wire.SizeInt(c.Streamed) +
		wire.SizeInt(c.Preempts)
}

func (c *CommandSnap) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.BodyLen()))
	b = c.Spec.AppendTo(b)
	b = wire.AppendInt(b, c.Status)
	b = wire.AppendString(b, c.Worker)
	b = wire.AppendInt(b, c.Retries)
	b = wire.AppendBytes(b, c.Checkpoint)
	b = wire.AppendInt(b, c.Streamed)
	return wire.AppendInt(b, c.Preempts)
}

func (c *CommandSnap) Decode(body []byte) error {
	r := wire.NewReader(body)
	*c = CommandSnap{}
	r.Nested(&c.Spec)
	c.Status = r.Int()
	c.Worker = r.Text()
	c.Retries = r.Int()
	c.Checkpoint = r.Bytes()
	c.Streamed = r.Int()
	c.Preempts = r.Int()
	return r.Err()
}

// tenantSnap is a snapshot's wire.TenantStatus, coded here: the type is
// wire's, but this body format is the store's, and Marshal keeps sending
// TenantStatus itself as gob.
type tenantSnap wire.TenantStatus

func (t *tenantSnap) BodyLen() int {
	return wire.SizeBytes(len(t.ID)) + 8 + wire.SizeInt(t.MaxQueued) + wire.SizeInt(t.MaxCores) +
		wire.SizeVarint(t.MaxStorageBytes) + wire.SizeInt(t.Queued) + wire.SizeInt(t.InflightCores) + 8 +
		wire.SizeVarint(t.StorageBytes) + 8
}

func (t *tenantSnap) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(t.BodyLen()))
	b = wire.AppendString(b, t.ID)
	b = wire.AppendFloat(b, t.Weight)
	b = wire.AppendInt(b, t.MaxQueued)
	b = wire.AppendInt(b, t.MaxCores)
	b = binary.AppendVarint(b, t.MaxStorageBytes)
	b = wire.AppendInt(b, t.Queued)
	b = wire.AppendInt(b, t.InflightCores)
	b = wire.AppendFloat(b, t.CoreSeconds)
	b = binary.AppendVarint(b, t.StorageBytes)
	return wire.AppendFloat(b, t.OldestWaitSeconds)
}

func (t *tenantSnap) Decode(body []byte) error {
	r := wire.NewReader(body)
	*t = tenantSnap{
		ID:                r.Text(),
		Weight:            r.Float(),
		MaxQueued:         r.Int(),
		MaxCores:          r.Int(),
		MaxStorageBytes:   r.Varint(),
		Queued:            r.Int(),
		InflightCores:     r.Int(),
		CoreSeconds:       r.Float(),
		StorageBytes:      r.Varint(),
		OldestWaitSeconds: r.Float(),
	}
	return r.Err()
}
