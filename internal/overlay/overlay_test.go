package overlay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/wire"
)

func TestIdentityFromSeedDeterministic(t *testing.T) {
	a := NewIdentityFromSeed(7)
	b := NewIdentityFromSeed(7)
	if a.ID != b.ID || !a.Pub.Equal(b.Pub) {
		t.Error("seeded identities differ")
	}
	c := NewIdentityFromSeed(8)
	if c.ID == a.ID {
		t.Error("different seeds produced same identity")
	}
	if len(a.ID) != 16 {
		t.Errorf("node ID length = %d", len(a.ID))
	}
}

func TestNewIdentityUnique(t *testing.T) {
	a, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Error("two fresh identities collide")
	}
}

func TestSignVerify(t *testing.T) {
	id := NewIdentityFromSeed(1)
	msg := []byte("hello")
	sig := id.Sign(msg)
	if !Verify(id.Pub, msg, sig) {
		t.Error("valid signature rejected")
	}
	if Verify(id.Pub, []byte("tampered"), sig) {
		t.Error("tampered message accepted")
	}
	other := NewIdentityFromSeed(2)
	if Verify(other.Pub, msg, sig) {
		t.Error("wrong key accepted")
	}
	if Verify(nil, msg, sig) {
		t.Error("nil key accepted")
	}
}

func TestTrustStore(t *testing.T) {
	ts := NewTrustStore()
	a := NewIdentityFromSeed(1)
	b := NewIdentityFromSeed(2)
	// Empty store trusts everyone.
	if !ts.Trusted(a.Pub) {
		t.Error("empty store should trust all")
	}
	id := ts.Add(a.Pub)
	if id != a.ID {
		t.Errorf("Add returned %s, want %s", id, a.ID)
	}
	if !ts.Trusted(a.Pub) {
		t.Error("added key not trusted")
	}
	if ts.Trusted(b.Pub) {
		t.Error("unknown key trusted once store is non-empty")
	}
	if ts.Len() != 1 {
		t.Errorf("Len = %d", ts.Len())
	}
	ts.Remove(a.ID)
	// Store empty again → allow-all.
	if !ts.Trusted(b.Pub) {
		t.Error("store should be allow-all after removal")
	}
}

// twoNodes builds a connected pair over a fresh MemNetwork.
func twoNodes(t *testing.T) (*Node, *Node, *MemNetwork) {
	t.Helper()
	net := NewMemNetwork()
	a := NewNode(NewIdentityFromSeed(1), NewTrustStore(), net.Transport())
	b := NewNode(NewIdentityFromSeed(2), NewTrustStore(), net.Transport())
	if err := a.Listen("a"); err != nil {
		t.Fatal(err)
	}
	peer, err := b.ConnectPeer("a")
	if err != nil {
		t.Fatal(err)
	}
	if peer != a.ID() {
		t.Fatalf("ConnectPeer returned %s, want %s", peer, a.ID())
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, net
}

func TestRequestResponseDirect(t *testing.T) {
	a, b, _ := twoNodes(t)
	a.Handle(wire.MsgPing, func(from string, payload []byte) ([]byte, error) {
		if from != b.ID() {
			t.Errorf("handler saw from=%s", from)
		}
		return append([]byte("pong:"), payload...), nil
	})
	reply, err := b.RequestTimeout(a.ID(), wire.MsgPing, []byte("x"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "pong:x" {
		t.Errorf("reply = %q", reply)
	}
}

func TestRequestErrorPropagates(t *testing.T) {
	a, b, _ := twoNodes(t)
	a.Handle(wire.MsgPing, func(string, []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	_, err := b.RequestTimeout(a.ID(), wire.MsgPing, nil, time.Second)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestRequestNoHandler(t *testing.T) {
	a, b, _ := twoNodes(t)
	_, err := b.RequestTimeout(a.ID(), wire.MsgPing, nil, time.Second)
	if err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Errorf("err = %v", err)
	}
}

func TestRequestTimeout(t *testing.T) {
	_, b, _ := twoNodes(t)
	// Address a node that does not exist.
	_, err := b.RequestTimeout("ffffffffffffffff", wire.MsgPing, nil, 100*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %v", err)
	}
}

// chain builds a linear overlay a—b—c, the Fig 1 shape where b is a gateway.
func chain(t *testing.T) (a, b, c *Node) {
	t.Helper()
	net := NewMemNetwork()
	a = NewNode(NewIdentityFromSeed(1), NewTrustStore(), net.Transport())
	b = NewNode(NewIdentityFromSeed(2), NewTrustStore(), net.Transport())
	c = NewNode(NewIdentityFromSeed(3), NewTrustStore(), net.Transport())
	if err := a.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectPeer("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnectPeer("b"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close(); c.Close() })
	return a, b, c
}

func TestMultiHopRouting(t *testing.T) {
	a, _, c := chain(t)
	a.Handle(wire.MsgPing, func(from string, payload []byte) ([]byte, error) {
		return []byte("from-a"), nil
	})
	// c is not directly connected to a; the request must relay through b.
	reply, err := c.RequestTimeout(a.ID(), wire.MsgPing, nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "from-a" {
		t.Errorf("reply = %q", reply)
	}
}

func TestAnycastFindsFirstWillingServer(t *testing.T) {
	a, b, c := chain(t)
	// b declines (no work available), a accepts: the request should walk
	// past b to a — the paper's "first server with available commands".
	b.Handle(wire.MsgAnnounce, func(string, []byte) ([]byte, error) {
		return nil, ErrNotHandled
	})
	a.Handle(wire.MsgAnnounce, func(string, []byte) ([]byte, error) {
		return []byte("work-from-a"), nil
	})
	reply, err := c.RequestTimeout("", wire.MsgAnnounce, []byte("resources"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "work-from-a" {
		t.Errorf("reply = %q", reply)
	}
}

func TestAnycastPrefersNearServer(t *testing.T) {
	_, b, c := chain(t)
	var aCount, bCount atomic.Int32
	b.Handle(wire.MsgAnnounce, func(string, []byte) ([]byte, error) {
		bCount.Add(1)
		return []byte("from-b"), nil
	})
	reply, err := c.RequestTimeout("", wire.MsgAnnounce, nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "from-b" || bCount.Load() != 1 || aCount.Load() != 0 {
		t.Errorf("reply=%q aCount=%d bCount=%d", reply, aCount.Load(), bCount.Load())
	}
}

func TestUntrustedPeerRejected(t *testing.T) {
	net := NewMemNetwork()
	aTrust := NewTrustStore()
	a := NewNode(NewIdentityFromSeed(1), aTrust, net.Transport())
	b := NewNode(NewIdentityFromSeed(2), NewTrustStore(), net.Transport())
	c := NewNode(NewIdentityFromSeed(3), NewTrustStore(), net.Transport())
	// a only trusts b.
	aTrust.Add(b.Identity().Pub)
	if err := a.Listen("a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	defer c.Close()
	if _, err := b.ConnectPeer("a"); err != nil {
		t.Fatalf("trusted peer rejected: %v", err)
	}
	if _, err := c.ConnectPeer("a"); err == nil {
		t.Fatal("untrusted peer accepted")
	}
}

func TestMutualTrustExchange(t *testing.T) {
	// Both sides restrict trust; connection only works after exchanging keys
	// both ways — the paper's key-exchange requirement.
	net := NewMemNetwork()
	aT, bT := NewTrustStore(), NewTrustStore()
	a := NewNode(NewIdentityFromSeed(1), aT, net.Transport())
	b := NewNode(NewIdentityFromSeed(2), bT, net.Transport())
	// Poison stores so they are non-empty but lack the peer.
	aT.Add(NewIdentityFromSeed(99).Pub)
	bT.Add(NewIdentityFromSeed(98).Pub)
	if err := a.Listen("a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if _, err := b.ConnectPeer("a"); err == nil {
		t.Fatal("connection succeeded without key exchange")
	}
	// Exchange keys.
	aT.Add(b.Identity().Pub)
	bT.Add(a.Identity().Pub)
	if _, err := b.ConnectPeer("a"); err != nil {
		t.Fatalf("connection failed after key exchange: %v", err)
	}
}

func TestPeersAndClose(t *testing.T) {
	a, b, _ := twoNodes(t)
	waitFor(t, func() bool { return len(a.Peers()) == 1 })
	if got := b.Peers(); len(got) != 1 || got[0] != a.ID() {
		t.Errorf("b.Peers() = %v", got)
	}
	b.Close()
	waitFor(t, func() bool { return len(a.Peers()) == 0 })
	// Requests after close fail fast.
	if _, err := b.RequestTimeout(a.ID(), wire.MsgPing, nil, time.Second); err == nil {
		t.Error("request after close should fail")
	}
	// Double close is safe.
	b.Close()
}

// TestClosedNodeDoesNotDial: a closed node that still holds its identity
// (an old process's leftover) must not reach the remote, whose peer table
// would then replace the live link of the restarted node under that ID.
func TestClosedNodeDoesNotDial(t *testing.T) {
	a, reborn, mem := twoNodes(t)
	a.Handle(wire.MsgPing, func(string, []byte) ([]byte, error) { return []byte("pong"), nil })
	old := NewNode(NewIdentityFromSeed(2), NewTrustStore(), mem.Transport())
	old.Close()
	if _, err := old.ConnectPeer("a"); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("closed node's ConnectPeer: err = %v, want net.ErrClosed", err)
	}
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if len(reborn.Peers()) == 0 {
			t.Fatal("the closed node's dial evicted the live link with the same ID")
		}
	}
	if _, err := reborn.RequestTimeout(a.ID(), wire.MsgPing, nil, time.Second); err != nil {
		t.Fatalf("live link after a closed node's dial: %v", err)
	}
}

func TestMemNetworkMetering(t *testing.T) {
	a, b, net := twoNodes(t)
	before := net.BytesSent()
	a.Handle(wire.MsgPing, func(_ string, p []byte) ([]byte, error) { return p, nil })
	payload := make([]byte, 10000)
	if _, err := b.RequestTimeout(a.ID(), wire.MsgPing, payload, time.Second); err != nil {
		t.Fatal(err)
	}
	moved := net.BytesSent() - before
	// Request + reply both carry the payload.
	if moved < 20000 {
		t.Errorf("metered only %d bytes for a 2x10kB exchange", moved)
	}
	if net.Conns() < 1 {
		t.Error("connection count not tracked")
	}
}

func TestMemNetworkAddressing(t *testing.T) {
	net := NewMemNetwork()
	tr := net.Transport()
	if _, err := tr.Dial("nowhere"); err == nil {
		t.Error("dialing unknown address should fail")
	}
	l, err := tr.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("x"); err == nil {
		t.Error("double listen should fail")
	}
	if l.Addr().String() != "x" || l.Addr().Network() != "mem" {
		t.Errorf("Addr = %v/%v", l.Addr().Network(), l.Addr().String())
	}
	l.Close()
	if _, err := tr.Listen("x"); err != nil {
		t.Errorf("relisten after close failed: %v", err)
	}
}

func TestTLSTransportEndToEnd(t *testing.T) {
	aID := NewIdentityFromSeed(1)
	bID := NewIdentityFromSeed(2)
	aTrust, bTrust := NewTrustStore(), NewTrustStore()
	aTrust.Add(bID.Pub)
	bTrust.Add(aID.Pub)
	aTr, err := NewTLSTransport(aID, aTrust)
	if err != nil {
		t.Fatal(err)
	}
	bTr, err := NewTLSTransport(bID, bTrust)
	if err != nil {
		t.Fatal(err)
	}
	a := NewNode(aID, aTrust, aTr)
	b := NewNode(bID, bTrust, bTr)
	defer a.Close()
	defer b.Close()
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := a.listeners[0].Addr().String()
	a.Handle(wire.MsgPing, func(_ string, p []byte) ([]byte, error) {
		return append([]byte("tls:"), p...), nil
	})
	if _, err := b.ConnectPeer(addr); err != nil {
		t.Fatal(err)
	}
	reply, err := b.RequestTimeout(a.ID(), wire.MsgPing, []byte("secure"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "tls:secure" {
		t.Errorf("reply = %q", reply)
	}
}

func TestTLSRejectsUntrusted(t *testing.T) {
	aID := NewIdentityFromSeed(1)
	cID := NewIdentityFromSeed(3)
	aTrust := NewTrustStore()
	aTrust.Add(NewIdentityFromSeed(2).Pub) // trusts someone else
	cTrust := NewTrustStore()
	aTr, err := NewTLSTransport(aID, aTrust)
	if err != nil {
		t.Fatal(err)
	}
	cTr, err := NewTLSTransport(cID, cTrust)
	if err != nil {
		t.Fatal(err)
	}
	a := NewNode(aID, aTrust, aTr)
	c := NewNode(cID, cTrust, cTr)
	defer a.Close()
	defer c.Close()
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := a.listeners[0].Addr().String()
	if _, err := c.ConnectPeer(addr); err == nil {
		t.Fatal("untrusted TLS peer accepted")
	}
}

func TestSeenCacheEviction(t *testing.T) {
	s := newSeenCache(3)
	for i := 0; i < 5; i++ {
		if !s.firstTime("a", uint64(i), false) {
			t.Fatalf("fresh key %d reported seen", i)
		}
	}
	if s.firstTime("a", 4, false) {
		t.Error("recent key reported fresh")
	}
	// Key 0 was evicted → fresh again.
	if !s.firstTime("a", 0, false) {
		t.Error("evicted key still reported seen")
	}
	// Replies and requests are distinct.
	if !s.firstTime("a", 4, true) {
		t.Error("reply flag should distinguish keys")
	}
}

// TestSeenCacheDuplicateRedelivery pins the dedup behaviour the retry layer
// leans on: a retried or multi-path flooded envelope (same sender, same
// request ID) is suppressed on every redelivery, not just the first, while
// the same request ID from a different sender is its own key.
func TestSeenCacheDuplicateRedelivery(t *testing.T) {
	s := newSeenCache(16)
	if !s.firstTime("w1", 7, false) {
		t.Fatal("first delivery reported seen")
	}
	for i := 0; i < 3; i++ {
		if s.firstTime("w1", 7, false) {
			t.Fatalf("redelivery %d not suppressed", i+1)
		}
	}
	if !s.firstTime("w2", 7, false) {
		t.Error("same request ID from another sender wrongly suppressed")
	}
	// The reply to a deduped request is still fresh exactly once.
	if !s.firstTime("w1", 7, true) {
		t.Fatal("reply suppressed by its own request")
	}
	if s.firstTime("w1", 7, true) {
		t.Error("duplicate reply not suppressed")
	}
}

// TestSeenCacheBoundedAndAllocFree pins the two properties the per-envelope
// path depends on: the set never holds more than limit keys however many
// pass through, and a repeat key (every redelivery of a flooded envelope)
// costs no allocation.
func TestSeenCacheBoundedAndAllocFree(t *testing.T) {
	const limit = 8
	s := newSeenCache(limit)
	for i := 0; i < 10*limit; i++ {
		s.firstTime("peer", uint64(i), i%3 == 0)
		if len(s.set) > limit || len(s.ring) > limit {
			t.Fatalf("after %d keys the cache holds %d (ring %d), limit %d", i+1, len(s.set), len(s.ring), limit)
		}
	}
	// The survivors are exactly the last limit keys.
	for i := 9 * limit; i < 10*limit; i++ {
		if s.firstTime("peer", uint64(i), i%3 == 0) {
			t.Errorf("key %d of the last %d was evicted early", i, limit)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.firstTime("peer", 10*limit-1, (10*limit-1)%3 == 0) }); allocs != 0 {
		t.Errorf("a repeat key allocated %.0f times per call", allocs)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func BenchmarkRequestRoundTripMem(b *testing.B) {
	net := NewMemNetwork()
	a := NewNode(NewIdentityFromSeed(1), NewTrustStore(), net.Transport())
	c := NewNode(NewIdentityFromSeed(2), NewTrustStore(), net.Transport())
	defer a.Close()
	defer c.Close()
	if err := a.Listen("a"); err != nil {
		b.Fatal(err)
	}
	a.Handle(wire.MsgPing, func(_ string, p []byte) ([]byte, error) { return p, nil })
	if _, err := c.ConnectPeer("a"); err != nil {
		b.Fatal(err)
	}
	payload := []byte(fmt.Sprintf("%0128d", 1)) // ~heartbeat-sized
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RequestTimeout(a.ID(), wire.MsgPing, payload, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHandshakeVersionMismatch dials a listener that answers the hello with
// a future protocol version and checks the typed sentinel surfaces through
// ConnectPeer, so operators can tell a version skew from a flaky link.
func TestHandshakeVersionMismatch(t *testing.T) {
	net := NewMemNetwork()
	tr := net.Transport()
	ln, err := tr.Listen("future-node")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = wire.ReadEnvelope(conn) // swallow the initiator's hello
		_ = wire.WriteEnvelope(conn, &wire.Envelope{Version: 99, Type: "hello", From: "future"})
	}()

	a := NewNode(NewIdentityFromSeed(1), NewTrustStore(), tr)
	defer a.Close()
	_, err = a.ConnectPeer("future-node")
	if err == nil {
		t.Fatal("handshake against version-99 peer succeeded")
	}
	if !errors.Is(err, ErrProtoVersion) {
		t.Errorf("errors.Is(err, ErrProtoVersion) = false for %v", err)
	}
	var ve *wire.VersionError
	if !errors.As(err, &ve) || ve.Got != 99 {
		t.Errorf("error %v does not carry the peer's version", err)
	}
}

// TestHandshakeOldPeerRefusedCleanly is the rolling-upgrade half of the
// version story: a protocol-v1 peer (pre-tenant) must be refused with
// ErrProtoVersion, not a gob mis-decode.
func TestHandshakeOldPeerRefusedCleanly(t *testing.T) {
	net := NewMemNetwork()
	tr := net.Transport()
	ln, err := tr.Listen("old-node")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = wire.ReadEnvelope(conn) // swallow the initiator's hello
		_ = wire.WriteEnvelope(conn, &wire.Envelope{Version: 1, Type: "hello", From: "v1-node"})
	}()

	a := NewNode(NewIdentityFromSeed(3), NewTrustStore(), tr)
	defer a.Close()
	_, err = a.ConnectPeer("old-node")
	if err == nil {
		t.Fatal("handshake against v1 peer succeeded")
	}
	if !errors.Is(err, ErrProtoVersion) {
		t.Errorf("errors.Is(err, ErrProtoVersion) = false for %v", err)
	}
	var ve *wire.VersionError
	if !errors.As(err, &ve) || ve.Got != 1 || ve.Want != wire.ProtocolVersion {
		t.Errorf("error %v does not carry both versions", err)
	}
}

// parentHelloFixture is the framed hello the build before the binary codec
// (protocol version 2, gob envelope) puts on a fresh connection. Captured from
// that build with NewIdentityFromSeed(7); do not regenerate.
const parentHelloFixture = "\x00\x00\x00\xff|\x7f\x03\x01\x01\bEnvelope\x01\xff\x80\x00\x01\n\x01\aVersion\x01\x04\x00\x01\x04Type\x01\f\x00\x01\x04From\x01\f\x00\x01\x02To\x01\f\x00\x01\tRequestID\x01\x06\x00\x01\aIsReply\x01\x02\x00\x01\x03TTL\x01\x04\x00\x01\aPayload\x01\n\x00\x01\x03Err\x01\f\x00\x01\aErrCode\x01\f\x00\x00\x00\xff\x80\xff\x80\x01\x04\x01\x05hello\x01\x10e9d160cc37e4f235\x05`\xbc\xf8\xbd&\x905\x19\x04\u0397\xcf\xee\xc1\xd7\xef\xfd+\x997\xf2e\x8d\xbd\xa4\xb8\x8a\xe55--\x06\xb0^\u00ec\xc4\x15\xd0\n\x11\x8b\x90\x1b\af3\xf7\x98\x99Z\ue3f7\xc9^;\x91\x9a\xfa\x15~\x9b\x92\xd2\x02\x7f\xf1FW\x8bw\x14,`\xe9g8\xc4\"\x90r,>E\xff\xe7.H\xfc\x88qz!\xde:\n\x00"

// v3HelloFixture is the framed hello a protocol version 3 build (binary
// envelope, gob engine payloads) puts on a fresh connection. Captured from
// that build with NewIdentityFromSeed(7); do not regenerate.
const v3HelloFixture = "\x00\x00\x00\x89\x00\x86\x01\x06\x05hello\x10e9d160cc37e4f235\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00`\xbc\xf8\xbd&\x905\x19\x04Η\xcf\xee\xc1\xd7\xef\xfd+\x997\xf2e\x8d\xbd\xa4\xb8\x8a\xe55--\x06\xb0^ì\xc4\x15\xd0\n\x11\x8b\x90\x1b\af3\xf7\x98\x99Z\ue3f7\xc9^;\x91\x9a\xfa\x15~\x9b\x92\xd2\x02\x7f\xf1FW\x8bw\x14,`\xe9g8\xc4\"\x90r,>E\xff\xe7.H\xfc\x88qz!\xde:\n\x00\x00"

// TestMixedFleetFailsAtHello joins a node of this build to a peer of an
// older one, in both roles. Dialed by an old node — the gob-envelope v2 build
// or the v3 build whose engines still spoke gob — this side reads the old
// hello and refuses it with both versions named. Dialing an old node, this
// side speaks first; the old node refuses the hello (a v2 node cannot parse
// it, a v3 node reads version 4), says nothing and hangs up, and the error
// here says which version this node speaks. Neither leaves a link behind.
func TestMixedFleetFailsAtHello(t *testing.T) {
	for _, old := range []struct {
		name    string
		hello   string
		version int
	}{
		{"dialed by an old node", parentHelloFixture, 2},
		{"dialed by a v3 node", v3HelloFixture, 3},
	} {
		t.Run(old.name, func(t *testing.T) {
			a := NewNode(NewIdentityFromSeed(5), NewTrustStore(), NewMemNetwork().Transport())
			defer a.Close()
			conn, peer := net.Pipe()
			defer peer.Close()
			go func() { _, _ = peer.Write([]byte(old.hello)) }()
			err := a.handleInbound(conn)
			want := fmt.Sprintf("protocol version %d, want %d", old.version, wire.ProtocolVersion)
			var ve *wire.VersionError
			if !errors.Is(err, ErrProtoVersion) || !errors.As(err, &ve) || ve.Got != old.version ||
				ve.Want != wire.ProtocolVersion || !strings.Contains(err.Error(), want) {
				t.Errorf("handshake error = %v, want one saying %q", err, want)
			}
			if n := len(a.Peers()); n != 0 {
				t.Errorf("%d peer links after a refused hello", n)
			}
		})
	}

	t.Run("dialing an old node", func(t *testing.T) {
		tr := NewMemNetwork().Transport()
		ln, err := tr.Listen("old-listener")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// The old node reads the frame, fails to decode it as gob, and
			// closes without a word.
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err == nil {
				_, _ = io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[:])))
			}
			conn.Close()
		}()
		a := NewNode(NewIdentityFromSeed(4), NewTrustStore(), tr)
		defer a.Close()
		_, err = a.ConnectPeer("old-listener")
		want := fmt.Sprintf("this node speaks protocol version %d", wire.ProtocolVersion)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("handshake error = %v, want one saying %q", err, want)
		}
		if n := len(a.Peers()); n != 0 {
			t.Errorf("%d peer links after a failed hello", n)
		}
	})
}

// TestRemoteErrorCodePlumbing sends a request whose handler fails with the
// admission sentinels and checks errors.Is matches across the network: the
// handler's error wraps a sentinel, reply() stamps Envelope.ErrCode, and the
// requester's RemoteError unwraps back to the same sentinel.
func TestRemoteErrorCodePlumbing(t *testing.T) {
	a, b, _ := twoNodes(t)
	a.Handle(wire.MsgSubmit, func(_ string, payload []byte) ([]byte, error) {
		switch string(payload) {
		case "quota":
			return nil, fmt.Errorf("tenant acme over quota: %w", wire.ErrQuotaExceeded)
		case "shed":
			return nil, fmt.Errorf("WAL pressure too high: %w", wire.ErrAdmissionShed)
		}
		return nil, errors.New("plain failure")
	})

	_, err := b.RequestTimeout(a.ID(), wire.MsgSubmit, []byte("quota"), time.Second)
	if !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Errorf("quota error did not survive the wire: %v", err)
	}
	if errors.Is(err, wire.ErrAdmissionShed) {
		t.Error("quota error must not match the shed sentinel")
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.ErrCodeQuota {
		t.Errorf("RemoteError.Code = %q, want %q (err %v)", re.Code, wire.ErrCodeQuota, err)
	}

	_, err = b.RequestTimeout(a.ID(), wire.MsgSubmit, []byte("shed"), time.Second)
	if !errors.Is(err, wire.ErrAdmissionShed) {
		t.Errorf("shed error did not survive the wire: %v", err)
	}

	_, err = b.RequestTimeout(a.ID(), wire.MsgSubmit, []byte("other"), time.Second)
	if err == nil {
		t.Fatal("plain failure did not surface")
	}
	if errors.Is(err, wire.ErrQuotaExceeded) || errors.Is(err, wire.ErrAdmissionShed) {
		t.Errorf("uncoded error matched an admission sentinel: %v", err)
	}
	if !errors.As(err, &re) || re.Code != "" {
		t.Errorf("uncoded RemoteError.Code = %q, want empty", re.Code)
	}
}
