package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// allocated reports the bytes f allocates (and whatever else the process
// allocates meanwhile, which the limits below leave room for).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readAllocLimit bounds what reading n bytes of segment may allocate: every
// intact frame costs a fresh gob decoder (some 9 KiB for a frame of 170 bytes,
// and a frame cannot be much smaller), plus room for the process's own noise.
func readAllocLimit(n int) uint64 { return uint64(128*n) + 64<<10 }

// gobTrustedBytes is what gob's own reader may allocate for a message count
// before reading it (encoding/internal/saferio's chunk). Only a frame whose
// CRC holds reaches gob, so it is charged only when one fails to decode.
const gobTrustedBytes = 10 << 20

// FuzzReadWAL feeds the segment reader an intact prefix of real frames
// followed by arbitrary bytes — a torn tail, a flipped CRC, a length word
// far beyond the input. No panic; allocation in proportion to the input, not
// to what a length word claims; and the intact prefix always comes back.
func FuzzReadWAL(f *testing.F) {
	good := []Record{
		{Seq: 1, Time: 1, Type: RecProjectSubmitted, Project: "proj", Tenant: "t", Note: "msm", Data: []byte("params")},
		{Seq: 2, Time: 2, Type: RecCommandAssigned, Project: "proj", Command: "proj/c1", Worker: "w1"},
		{Seq: 3, Time: 3, Type: RecResult, Project: "proj", Command: "proj/c1", Worker: "w1", Data: bytes.Repeat([]byte("out"), 100)},
	}
	frames := make([][]byte, len(good))
	for i := range good {
		fr, err := encodeFrame(&good[i])
		if err != nil {
			f.Fatal(err)
		}
		frames[i] = fr
	}
	header := func(n uint32, body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), append([]byte{0, 0, 0, 0}, body...)...)
	}
	badCRC := bytes.Clone(frames[2])
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(uint8(3), []byte(nil))                              // the intact log
	f.Add(uint8(2), frames[2][:len(frames[2])/2])             // torn body
	f.Add(uint8(1), frames[1][:5])                            // torn header
	f.Add(uint8(2), badCRC)                                   // bad CRC
	f.Add(uint8(1), header(maxRecordBytes, []byte("abc")...)) // oversized length, three bytes behind it
	f.Add(uint8(0), header(maxRecordBytes+1))                 // implausible length
	f.Add(uint8(3), append(header(1<<20), frames[0]...))      // a length that swallows a real frame
	f.Fuzz(func(t *testing.T, prefix uint8, tail []byte) {
		k := int(prefix) % (len(good) + 1)
		in := bytes.Join(frames[:k], nil)
		in = append(in, tail...)
		var recs []Record
		var torn string
		got := allocated(func() { recs, torn = readRecords(bytes.NewReader(in)) })
		limit := readAllocLimit(len(in))
		if strings.HasPrefix(torn, "undecodable record") {
			limit += gobTrustedBytes
		}
		if got > limit {
			t.Fatalf("%d bytes allocated reading %d bytes (torn %q)", got, len(in), torn)
		}
		if len(recs) < k || (k > 0 && !reflect.DeepEqual(recs[:k], good[:k])) {
			t.Fatalf("intact prefix of %d records read back as %d: %+v", k, len(recs), recs)
		}
		if len(tail) == 0 && (len(recs) != k || torn != "") {
			t.Fatalf("intact log of %d records read as %d, torn %q", k, len(recs), torn)
		}
	})
}
