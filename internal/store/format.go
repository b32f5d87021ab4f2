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
//	                    is one Record or Snapshot, uvarint bodyLen | fields in
//	                    declaration order, fields only ever appended
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

func init() { wire.Register(Record{}, Snapshot{}) }

// appendFrame appends rec's frame, with the header written in place, to dst.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	frame, err := wire.AppendStruct(dst, rec, frameHeaderLen)
	if err != nil {
		return nil, err
	}
	if n := len(frame) - len(dst) - frameHeaderLen; n > maxRecordBytes {
		return nil, fmt.Errorf("store: record of %d bytes exceeds the %d-byte frame limit", n, maxRecordBytes)
	}
	seal(frame, len(dst))
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
	err = wire.DecodeStruct(bytes.Clone(payload), &rec)
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
	out, err := wire.EncodeStruct(snap, len(snapMagic)+frameHeaderLen)
	if err != nil {
		panic(err) // only a nil snapshot is refused: a Snapshot holds no frames
	}
	copy(out, snapMagic)
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
		err = wire.DecodeStruct(payload, &snap)
	}
	if err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	return &snap, nil
}
