package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"copernicus/internal/rng"
	"copernicus/internal/wire"
)

// TestRecordsSurviveFrameReuse stages records whose sizes cycle through
// small, typical and past the bound on the store's reused append buffer, then
// checks that a fresh read of the directory returns exactly those records.
func TestRecordsSurviveFrameReuse(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	r := rng.New(34)
	var want []Record
	for i := 0; i < 30; i++ {
		data := make([]byte, []int{10, 16 << 10, 2 << 20}[i%3])
		for j := 0; j < len(data); j += 8 {
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], r.Uint64())
			copy(data[j:], word[:])
		}
		rec := Record{Type: RecResult, Project: "p", Command: fmt.Sprintf("c%d", i), Data: data}
		seq, err := s.Stage(rec)
		if err != nil {
			t.Fatal(err)
		}
		rec.Seq = seq
		want = append(want, rec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadAll(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn != "" || len(rec.Records) != len(want) {
		t.Fatalf("read %d records (torn %q), want %d", len(rec.Records), rec.Torn, len(want))
	}
	for i, got := range rec.Records {
		w := want[i]
		if got.Seq != w.Seq || got.Type != w.Type || got.Command != w.Command || !bytes.Equal(got.Data, w.Data) {
			t.Fatalf("record %d: got seq %d %s %s with %d bytes, want seq %d %s %s with %d bytes",
				i, got.Seq, got.Type, got.Command, len(got.Data), w.Seq, w.Type, w.Command, len(w.Data))
		}
	}
}

// TestStageAllocatesNothingPerRecordByte pins the reused append buffer:
// staging a 16 KiB record costs no allocation proportional to the record.
// It counts bytes the way testing.Benchmark does, over a fixed number of
// stages rather than a second's worth, which would write gigabytes.
func TestStageAllocatesNothingPerRecordByte(t *testing.T) {
	s := mustOpen(t, testOptions(t))
	defer s.Close()
	rec := Record{Type: RecResult, Project: "p", Command: "c", Data: make([]byte, 16<<10)}
	stage := func() {
		if _, err := s.Stage(rec); err != nil {
			t.Fatal(err)
		}
	}
	stage() // grows the buffer
	const n = 256
	per := allocated(func() {
		for i := 0; i < n; i++ {
			stage()
		}
	}) / n
	if per >= 1<<10 {
		t.Errorf("staging a 16 KiB record allocates %d bytes, want under 1 KiB", per)
	}
}

// TestStoreDropsOversizedFrameBuffer: the buffer grown for one record past
// wire.MaxReusedBuffer is not kept.
func TestStoreDropsOversizedFrameBuffer(t *testing.T) {
	s := mustOpen(t, testOptions(t))
	defer s.Close()
	for _, size := range []int{16 << 10, wire.MaxReusedBuffer + 1, 16 << 10} {
		if _, err := s.Stage(Record{Type: RecResult, Data: make([]byte, size)}); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		c := cap(s.frame)
		s.mu.Unlock()
		if c > wire.MaxReusedBuffer || c < 16<<10 {
			t.Fatalf("after a %d-byte record the store keeps a %d-byte buffer, want 16 KiB..%d",
				size, c, wire.MaxReusedBuffer)
		}
	}
}
