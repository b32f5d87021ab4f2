package overlay

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/wire"
)

// TestRefusedBodyFailsOneRequest: a body the codec cannot encode — a frame
// chunk whose frames differ in width — fails its own request at once with
// Marshal's error, before anything is queued, and the next request on the
// same link succeeds.
func TestRefusedBodyFailsOneRequest(t *testing.T) {
	a, b, _ := twoNodes(t)
	a.Handle(wire.MsgFrameChunk, func(_ string, payload []byte) ([]byte, error) {
		var c wire.FrameChunk
		if err := wire.Unmarshal(payload, &c); err != nil {
			return nil, err
		}
		return []byte(c.CommandID), nil
	})
	ragged := &wire.FrameChunk{CommandID: "ragged", Frames: [][]float64{{1, 2}, {3}}}
	_, merr := wire.Marshal(ragged)
	if merr == nil {
		t.Fatal("Marshal accepted ragged frames")
	}
	start := time.Now()
	_, err := b.RequestTimeout(a.ID(), wire.MsgFrameChunk, ragged, 5*time.Second)
	if err == nil || err.Error() != merr.Error() {
		t.Fatalf("ragged chunk request = %v, want Marshal's %v", err, merr)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("the refused request took %v; it should fail before it is queued", waited)
	}
	reply, err := b.RequestTimeout(a.ID(), wire.MsgFrameChunk,
		&wire.FrameChunk{CommandID: "even", Frames: [][]float64{{1, 2}, {3, 4}}}, 5*time.Second)
	if err != nil || string(reply) != "even" {
		t.Fatalf("the next request on the link = %q, %v", reply, err)
	}
}

// countingConn records what is written to it.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return len(p), nil
}

// TestLinkDropsUnframableEnvelope: an envelope the link's writer still
// cannot frame — its body was written after the request took it, against
// the rule — is dropped and counted, nothing of it reaches the connection,
// and the link writes the next envelope as usual.
func TestLinkDropsUnframableEnvelope(t *testing.T) {
	conn := &countingConn{}
	link := newPeerLink("rx", conn)
	link.errs = obs.New().Metrics.Counter("copernicus_overlay_errors_total", "Failed envelope sends to peers.", nil)
	chunk := &wire.FrameChunk{Frames: [][]float64{{1, 2}, {3, 4}}}
	bad := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgFrameChunk}
	if err := bad.SetBody(chunk); err != nil {
		t.Fatal(err)
	}
	chunk.Frames[1] = chunk.Frames[1][:1]
	if err := link.write(bad); err != nil {
		t.Fatalf("an unframable envelope failed the link: %v", err)
	}
	if n, e := conn.writes.Load(), link.errs.Value(); n != 0 || e != 1 {
		t.Fatalf("after the unframable envelope: %d writes, %d errors counted; want 0 and 1", n, e)
	}
	if err := link.write(&wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgPing}); err != nil {
		t.Fatal(err)
	}
	if n := conn.writes.Load(); n != 1 {
		t.Fatalf("the next envelope made %d writes, want 1", n)
	}
}

// TestValueBodyBytesCounted: the sender's tx payload-bytes series counts a
// value body by its encoded length, which is what the receiver's rx series
// counts and what Marshal gives.
func TestValueBodyBytesCounted(t *testing.T) {
	a, b, _ := twoNodes(t)
	var got []byte
	a.Handle(wire.MsgResult, func(_ string, payload []byte) ([]byte, error) {
		got = payload
		return nil, nil
	})
	res := &wire.CommandResult{CommandID: "p/c1", Project: "p", OK: true, Output: bytes.Repeat([]byte("x"), 16<<10)}
	want, err := wire.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RequestTimeout(a.ID(), wire.MsgResult, res, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the handler got %d bytes, Marshal gives %d", len(got), len(want))
	}
	link := func(n *Node, peer string) *peerLink {
		n.mu.RLock()
		defer n.mu.RUnlock()
		return n.peers[peer]
	}
	// The writer counts after its write returns, which may be after the
	// reply has arrived.
	tx, rx := link(b, a.ID()).txBytes, link(a, b.ID()).rxBytes.Value()
	waitFor(t, func() bool { return tx.Value() != 0 })
	if tx.Value() != uint64(len(want)) || rx != tx.Value() {
		t.Errorf("payload bytes: sender counted %d tx, receiver %d rx; Marshal gives %d", tx.Value(), rx, len(want))
	}
}

// TestLocalRequestGetsMarshalledBody: a request served by the node that made
// it is never framed; its handler gets the body marshalled.
func TestLocalRequestGetsMarshalledBody(t *testing.T) {
	a, _, _ := twoNodes(t)
	a.Handle(wire.MsgHeartbeat, func(_ string, payload []byte) ([]byte, error) { return payload, nil })
	hb := &wire.Heartbeat{WorkerID: "w", CommandIDs: []string{"c1", "c2"}}
	want, err := wire.Marshal(hb)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := a.RequestTimeout(a.ID(), wire.MsgHeartbeat, hb, 5*time.Second)
	if err != nil || !bytes.Equal(reply, want) {
		t.Fatalf("local request's handler saw %q, %v; want %q", reply, err, want)
	}
}
