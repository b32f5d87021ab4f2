package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	env := &Envelope{
		Version:   ProtocolVersion,
		Type:      MsgAnnounce,
		From:      "node-a",
		To:        "node-b",
		RequestID: 42,
		TTL:       8,
		Payload:   []byte("hello"),
	}
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEnvelope(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != env.Type || got.From != env.From || got.To != env.To ||
		got.RequestID != env.RequestID || got.TTL != env.TTL ||
		string(got.Payload) != "hello" {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestReadEnvelopeEOF(t *testing.T) {
	_, err := ReadEnvelope(bytes.NewReader(nil))
	if err != io.EOF {
		t.Errorf("empty stream error = %v, want io.EOF", err)
	}
}

func TestReadEnvelopeTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, &Envelope{Version: ProtocolVersion, Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	_, err := ReadEnvelope(bytes.NewReader(data[:len(data)-3]))
	if err == nil {
		t.Error("truncated frame should fail")
	}
}

func TestReadEnvelopeVersionCheck(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, &Envelope{Version: 99, Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadEnvelope(&buf)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch error = %v", err)
	}
}

func TestReadEnvelopeOversizeRejected(t *testing.T) {
	// Forge a header claiming a giant frame.
	hdr := []byte{0x7f, 0xff, 0xff, 0xff}
	_, err := ReadEnvelope(bytes.NewReader(append(hdr, 0)))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversize error = %v", err)
	}
}

func TestMultipleEnvelopesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		env := &Envelope{Version: ProtocolVersion, Type: MsgPing, RequestID: uint64(i)}
		if err := WriteEnvelope(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		env, err := ReadEnvelope(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if env.RequestID != uint64(i) {
			t.Errorf("envelope %d has RequestID %d", i, env.RequestID)
		}
	}
	if _, err := ReadEnvelope(&buf); err != io.EOF {
		t.Errorf("after stream end: %v, want io.EOF", err)
	}
}

func TestCommandSpecValidate(t *testing.T) {
	good := CommandSpec{ID: "c1", Project: "p", Type: "mdrun", MinCores: 1, MaxCores: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []CommandSpec{
		{Project: "p", Type: "t", MinCores: 1, MaxCores: 1},
		{ID: "c", Type: "t", MinCores: 1, MaxCores: 1},
		{ID: "c", Project: "p", MinCores: 1, MaxCores: 1},
		{ID: "c", Project: "p", Type: "t", MinCores: 0, MaxCores: 1},
		{ID: "c", Project: "p", Type: "t", MinCores: 4, MaxCores: 2},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("invalid spec %d accepted", i)
		}
	}
}

func TestMarshalUnmarshalStructs(t *testing.T) {
	w := Workload{
		Commands:         []CommandSpec{{ID: "a", Project: "p", Type: "t", MinCores: 1, MaxCores: 2}},
		Cores:            map[string]int{"a": 2},
		HeartbeatSeconds: 120,
	}
	data, err := Marshal(&w)
	if err != nil {
		t.Fatal(err)
	}
	var got Workload
	if err := Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Commands) != 1 || got.Cores["a"] != 2 || got.HeartbeatSeconds != 120 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	var w Workload
	if err := Unmarshal([]byte("not gob"), &w); err == nil {
		t.Error("garbage should fail to decode")
	}
}

func TestHeartbeatStaysSmall(t *testing.T) {
	// The paper: heartbeat messages are "typically less than 200 bytes".
	hb := Heartbeat{WorkerID: "worker-0123456789", CommandIDs: []string{"cmd-1", "cmd-2"}}
	payload, err := Marshal(&hb)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// Addressed as the overlay addresses it: 16-character node IDs, a
	// 64-bit request ID, a TTL.
	env := &Envelope{Version: ProtocolVersion, Type: MsgHeartbeat, From: "e9d160cc37e4f235",
		To: "866f42dddf1ef3dc", RequestID: 1<<63 + 12345, TTL: 8, Payload: payload}
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= 200 {
		t.Errorf("framed heartbeat is %d bytes; the protocol has grown fat", buf.Len())
	}
}

func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(payload []byte, from, to string, reqID uint64, ttl uint8) bool {
		env := &Envelope{
			Version:   ProtocolVersion,
			Type:      MsgResult,
			From:      from,
			To:        to,
			RequestID: reqID,
			TTL:       int(ttl),
			Payload:   payload,
		}
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, env); err != nil {
			return false
		}
		got, err := ReadEnvelope(&buf)
		if err != nil {
			return false
		}
		return got.From == from && got.To == to && got.RequestID == reqID &&
			got.TTL == int(ttl) && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVersionMismatchTyped(t *testing.T) {
	var buf bytes.Buffer
	env := &Envelope{Version: 99, Type: "hello", From: "future-node"}
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	_, err := ReadEnvelope(&buf)
	if err == nil {
		t.Fatal("version-99 envelope accepted")
	}
	if !errors.Is(err, ErrProtoVersion) {
		t.Errorf("errors.Is(err, ErrProtoVersion) = false for %v", err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error %v is not a *VersionError", err)
	}
	if ve.Got != 99 || ve.Want != ProtocolVersion {
		t.Errorf("VersionError = %+v, want Got=99 Want=%d", ve, ProtocolVersion)
	}
	if !strings.Contains(ve.Error(), "protocol version 99") {
		t.Errorf("message %q does not name the offending version", ve.Error())
	}
}

func TestReplicationPayloadRoundtrip(t *testing.T) {
	batch := ReplBatch{
		PrimaryID:          "srv-a",
		Epoch:              3,
		Snapshot:           []byte{0xCA, 0xFE},
		SnapLastSeq:        41,
		Records:            []byte("opaque-gob"),
		Count:              2,
		FirstSeq:           42,
		LastSeq:            43,
		LeaseTimeoutMillis: 1500,
	}
	raw, err := Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var got ReplBatch
	if err := Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.FirstSeq != 42 || got.LastSeq != 43 ||
		!bytes.Equal(got.Snapshot, batch.Snapshot) || !bytes.Equal(got.Records, batch.Records) {
		t.Errorf("ReplBatch roundtrip mismatch: %+v", got)
	}

	ack := ReplAck{ResponderID: "srv-b", Epoch: 4, AppliedSeq: 43, Refused: true, Reason: "fenced"}
	raw, err = Marshal(ack)
	if err != nil {
		t.Fatal(err)
	}
	var gotAck ReplAck
	if err := Unmarshal(raw, &gotAck); err != nil {
		t.Fatal(err)
	}
	if gotAck != ack {
		t.Errorf("ReplAck roundtrip = %+v, want %+v", gotAck, ack)
	}

	join := ReplJoin{StandbyID: "srv-b", Addr: "host:9051", Epoch: 2, AppliedSeq: 17}
	raw, err = Marshal(join)
	if err != nil {
		t.Fatal(err)
	}
	var gotJoin ReplJoin
	if err := Unmarshal(raw, &gotJoin); err != nil {
		t.Fatal(err)
	}
	if gotJoin != join {
		t.Errorf("ReplJoin roundtrip = %+v, want %+v", gotJoin, join)
	}

	promo := Promoted{NodeID: "srv-b", Epoch: 4, Projects: []string{"villin", "fip35"}}
	raw, err = Marshal(promo)
	if err != nil {
		t.Fatal(err)
	}
	var gotPromo Promoted
	if err := Unmarshal(raw, &gotPromo); err != nil {
		t.Fatal(err)
	}
	if gotPromo.NodeID != "srv-b" || gotPromo.Epoch != 4 || len(gotPromo.Projects) != 2 {
		t.Errorf("Promoted roundtrip mismatch: %+v", gotPromo)
	}
}
