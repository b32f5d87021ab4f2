package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"copernicus/internal/wire"
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

// readAllocLimit bounds what reading n bytes of segment may allocate. A gob
// frame costs a fresh gob decoder (some 9 KiB for a frame of 170 bytes, and a
// frame cannot be much smaller); a binary one its body, its strings and its
// Record. Plus room for the process's own noise.
func readAllocLimit(n int) uint64 { return uint64(128*n) + 64<<10 }

// gobTrustedBytes is what gob's own reader may allocate for a message count
// before reading it (encoding/internal/saferio's chunk). Only a frame whose
// CRC holds reaches gob, so it is charged only when one fails to decode.
const gobTrustedBytes = 10 << 20

// parentSegmentFile holds the bytes of internal/server's parentWALFixture: a
// segment, nine gob records, that a build before the binary format wrote.
// Captured; do not regenerate it from current code.
const parentSegmentFile = "testdata/parent_gob_segment.log"

// splitFrames cuts a segment's body into its frames by their length words.
func splitFrames(tb testing.TB, body []byte) [][]byte {
	var frames [][]byte
	for len(body) > 0 {
		n := frameHeaderLen + int(binary.BigEndian.Uint32(body))
		if n > len(body) {
			tb.Fatalf("frame of %d bytes with %d left", n, len(body))
		}
		frames = append(frames, body[:n])
		body = body[n:]
	}
	return frames
}

// FuzzReadWAL feeds the segment reader, in either format, an intact prefix of
// real frames followed by arbitrary bytes — a torn tail, a flipped CRC, a
// length word far beyond the input. No panic; allocation in proportion to the
// input, not to what a length word claims; and the intact prefix always comes
// back.
func FuzzReadWAL(f *testing.F) {
	good := []Record{
		{Seq: 1, Time: 1, Type: RecProjectSubmitted, Project: "proj", Tenant: "t", Note: "msm", Data: []byte("params")},
		{Seq: 2, Time: 2, Type: RecCommandAssigned, Project: "proj", Command: "proj/c1", Worker: "w1"},
		{Seq: 3, Time: 3, Type: RecResult, Project: "proj", Command: "proj/c1", Worker: "w1", Data: bytes.Repeat([]byte("out"), 100)},
	}
	binFrames := make([][]byte, len(good))
	for i := range good {
		fr, err := appendFrame(nil, &good[i])
		if err != nil {
			f.Fatal(err)
		}
		binFrames[i] = fr
	}
	parent, err := os.ReadFile(parentSegmentFile)
	if err != nil {
		f.Fatal(err)
	}
	gobFrames := splitFrames(f, parent[len(segMagicGob):])
	gobGood, torn := readRecords(parent[len(segMagicGob):], decodeGobRecord)
	if len(gobGood) != 9 || len(gobFrames) != 9 || torn != "" {
		f.Fatalf("parent segment reads as %d records in %d frames, torn %q", len(gobGood), len(gobFrames), torn)
	}
	formats := []struct {
		frames [][]byte
		good   []Record
		decode func([]byte) (Record, error)
	}{
		{binFrames, good, decodeRecord},
		{gobFrames, gobGood, decodeGobRecord},
	}

	header := func(n uint32, body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), append([]byte{0, 0, 0, 0}, body...)...)
	}
	for _, legacy := range []bool{false, true} {
		frames := formats[0].frames
		if legacy {
			frames = formats[1].frames
		}
		last := uint8(len(frames) - 1)
		badCRC := bytes.Clone(frames[last])
		badCRC[len(badCRC)-1] ^= 0xff
		f.Add(legacy, last+1, []byte(nil))                                // the intact log
		f.Add(legacy, last, frames[last][:len(frames[last])/2])           // torn body
		f.Add(legacy, uint8(1), frames[1][:5])                            // torn header
		f.Add(legacy, last, badCRC)                                       // bad CRC
		f.Add(legacy, uint8(1), header(maxRecordBytes, []byte("abc")...)) // oversized length, three bytes behind it
		f.Add(legacy, uint8(0), header(maxRecordBytes+1))                 // implausible length
		f.Add(legacy, last+1, append(header(1<<20), frames[0]...))        // a length that swallows a real frame
	}
	f.Fuzz(func(t *testing.T, legacy bool, prefix uint8, tail []byte) {
		format := formats[0]
		if legacy {
			format = formats[1]
		}
		k := int(prefix) % (len(format.good) + 1)
		in := bytes.Join(format.frames[:k], nil)
		in = append(in, tail...)
		var recs []Record
		var torn string
		got := allocated(func() { recs, torn = readRecords(in, format.decode) })
		limit := readAllocLimit(len(in))
		if legacy && strings.HasPrefix(torn, "undecodable record") {
			limit += gobTrustedBytes
		}
		if got > limit {
			t.Fatalf("%d bytes allocated reading %d bytes (torn %q)", got, len(in), torn)
		}
		if len(recs) < k || (k > 0 && !reflect.DeepEqual(recs[:k], format.good[:k])) {
			t.Fatalf("intact prefix of %d records read back as %d: %+v", k, len(recs), recs)
		}
		if len(tail) == 0 && (len(recs) != k || torn != "") {
			t.Fatalf("intact log of %d records read as %d, torn %q", k, len(recs), torn)
		}
	})
}

// TestBinaryRecordsOwnTheirData: every record read from a binary segment
// keeps its own Data, which does not share memory with the next record's.
func TestBinaryRecordsOwnTheirData(t *testing.T) {
	var seg []byte
	for i, data := range []string{"first", "second", "third"} {
		fr, err := appendFrame(nil, &Record{Seq: uint64(i + 1), Type: RecResult, Data: []byte(data)})
		if err != nil {
			t.Fatal(err)
		}
		seg = append(seg, fr...)
	}
	recs, torn := readRecords(seg, decodeRecord)
	if len(recs) != 3 || torn != "" {
		t.Fatalf("read %d records, torn %q", len(recs), torn)
	}
	clear(seg)
	for i, want := range []string{"first", "second", "third"} {
		if string(recs[i].Data) != want {
			t.Errorf("record %d's Data = %q after its segment image was overwritten, want %q", i, recs[i].Data, want)
		}
	}
}

// snapAllocLimit bounds what decoding an n-byte snapshot file may allocate:
// the image of what it holds, a ProjectSnap, a CommandSnap or a TenantStatus
// costing at most some 14 bytes of memory per byte of input (the smallest
// encodings the codec derives for them), plus room for the process's own
// noise.
func snapAllocLimit(n int) uint64 { return uint64(32*n) + 64<<10 }

// testSnapshot has every field set, a project with two commands and a
// tenant.
func testSnapshot() *Snapshot {
	return &Snapshot{
		TakenAt: 1_700_000_000_000_000_000, LastSeq: 42,
		Projects: []ProjectSnap{{
			Name: "villin", Controller: "msm", Tenant: "acme", Priority: -2, State: "running",
			Generation: 3, Note: "gen 3", FailErr: "", Result: []byte("r"), Finished: 7, Failed: 1,
			Seed: 1 << 63, CtrlState: []byte("ctrl"),
			Commands: []CommandSnap{
				{Spec: wire.CommandSpec{ID: "villin/c1", Project: "villin", Tenant: "acme", Type: "mdrun",
					MinCores: 1, MaxCores: 4, Payload: []byte("p")},
					Status: 2, Worker: "w1", Retries: 1, Checkpoint: []byte("ck"), Streamed: 5, Preempts: 2},
				{Spec: wire.CommandSpec{ID: "villin/c2", Project: "villin", Type: "mdrun"}},
			},
		}},
		Tenants: []wire.TenantStatus{{ID: "acme", Weight: 2.5, MaxQueued: 10, MaxCores: 8,
			MaxStorageBytes: 1 << 40, Queued: 1, InflightCores: 4, CoreSeconds: 12.5, StorageBytes: 99,
			OldestWaitSeconds: 0.25}},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot()
	file := encodeSnapshot(want)
	if !bytes.HasPrefix(file, snapMagic) {
		t.Fatalf("snapshot file opens with %q, want %q", file[:len(snapMagic)], snapMagic)
	}
	got, err := decodeSnapshot(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot round trip\n got %+v\nwant %+v", got, want)
	}
}

// snapBeforeTenantCounts is a snapshot file as the build before
// TenantStatus.Shed and QuotaRejects wrote it (captured): the default
// tenant's 32-byte account and tenant "a"'s. Both are shorter than the
// smallest account with the two counts, so only a count bound that leaves
// appended fields out admits the list.
var snapBeforeTenantCounts = []byte("CPCSNAP2\x00\x00\x00Nw\xf5\x04}M\x80\x80\xd0\xe2\u01bf\u0397/\x03\x00\x02\x1f\x00\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00>@\x00\x00\x00\x00\x00\x00\x00\x00\x00 \x01a\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xe0?")

func TestSnapshotBeforeTenantCountsDecodes(t *testing.T) {
	got, err := decodeSnapshot(snapBeforeTenantCounts)
	if err != nil {
		t.Fatal(err)
	}
	want := &Snapshot{TakenAt: 1_700_000_000_000_000_000, LastSeq: 3, Tenants: []wire.TenantStatus{
		{ID: "", Weight: 1, CoreSeconds: 30}, {ID: "a", Weight: 2, Queued: 1, OldestWaitSeconds: 0.5}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded as %+v, want %+v", got, want)
	}
}

// FuzzDecodeSnapshot decodes arbitrary snapshot files in either format,
// with the header left as the fuzzer wrote it or sealed over the body so that
// the body reaches the decoder. No panic; allocation in proportion to the
// input; and whatever decodes re-encodes to an equal snapshot, compared as
// encodings (which, unlike DeepEqual, treat a NaN as itself).
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range []*Snapshot{testSnapshot(), {}} {
		file := encodeSnapshot(s)
		f.Add(file, false)
		f.Add(file[:len(file)-3], true)
		f.Add(append(bytes.Clone(file), 0), true)
	}
	// A BAR project's snapshot as a gob-writing build left it; captured.
	parent, err := os.ReadFile(filepath.Join("..", "server", "testdata", "bar_finished_state", "snap-0000000000000002.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent, false)
	f.Add(parent[:len(parent)/2], true)
	f.Fuzz(func(t *testing.T, file []byte, seal bool) {
		hdr := len(snapMagic) + frameHeaderLen
		if seal && len(file) >= hdr {
			body := file[hdr:]
			binary.BigEndian.PutUint32(file[len(snapMagic):], uint32(len(body)))
			binary.BigEndian.PutUint32(file[len(snapMagic)+4:], crc32.Checksum(body, castagnoli))
		}
		var snap *Snapshot
		var err error
		got := allocated(func() { snap, err = decodeSnapshot(file) })
		limit := snapAllocLimit(len(file))
		if bytes.HasPrefix(file, snapMagicGob) {
			limit += gobTrustedBytes
		}
		if got > limit {
			t.Fatalf("%d bytes allocated decoding %d bytes", got, len(file))
		}
		if err != nil {
			return
		}
		once := encodeSnapshot(snap)
		again, err := decodeSnapshot(once)
		if err != nil {
			t.Fatalf("decoded snapshot re-encodes to a file that does not decode: %v", err)
		}
		if twice := encodeSnapshot(again); !bytes.Equal(once, twice) {
			t.Fatalf("snapshot changed in a round trip:\n %+q\n %+q", once, twice)
		}
	})
}
