package overlay

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"copernicus/internal/rng"
	"copernicus/internal/wire"
)

// The payload sizes a reused send buffer moves through: empty, tiny and
// typical frames, and rarer big ones — a frame just inside
// wire.MaxReusedBuffer (kept), one either side of the 1 MiB payload mark
// (dropped) and one four times the bound. One envelope in eight is big, so
// every transition between the two recurs without the run moving gigabytes
// under the race detector.
var (
	smallPayloads = []int{0, 1, 16 << 10}
	bigPayloads   = []int{wire.MaxReusedBuffer - 256, wire.MaxReusedBuffer - 1, wire.MaxReusedBuffer + 1, 4 << 20}
)

// connPair returns the two ends of one connection, listened for on lt and
// dialled over dt.
func connPair(t *testing.T, lt, dt Transport, addr string) (client, server net.Conn) {
	t.Helper()
	l, err := lt.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		if tc, ok := c.(*tls.Conn); ok {
			// The dialler's handshake waits on this side's.
			_ = tc.Handshake()
		}
		accepted <- c
	}()
	client, err = dt.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if server = <-accepted; server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func memPair(t *testing.T) (client, server net.Conn) {
	tr := NewMemNetwork().Transport()
	return connPair(t, tr, tr, "rx")
}

// tlsPair returns the two ends of a mutually authenticated TLS loopback
// connection.
func tlsPair(t *testing.T) (client, server net.Conn) {
	aID, bID := NewIdentityFromSeed(1), NewIdentityFromSeed(2)
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
	return connPair(t, aTr, bTr, "127.0.0.1:0")
}

// TestLinkFramesSurviveBufferReuse sends envelopes of seeded random sizes
// through one link's write loop, whose send buffer is reused, grown and
// dropped along the way, and checks every byte and the order of what the
// far end reads.
func TestLinkFramesSurviveBufferReuse(t *testing.T) {
	const n = 500
	r := rng.New(34)
	pool := make([]byte, 2*(4<<20))
	for i := 0; i < len(pool); i += 8 {
		binary.LittleEndian.PutUint64(pool[i:], r.Uint64())
	}
	// Each payload is a window of the pool at a random offset, so no two
	// envelopes carry the same bytes.
	sent := make([][]byte, n)
	drawn := make(map[int]bool)
	for i := range sent {
		sizes := smallPayloads
		if r.Intn(8) == 0 {
			sizes = bigPayloads
		}
		size := sizes[r.Intn(len(sizes))]
		off := r.Intn(len(pool) - size + 1)
		sent[i] = pool[off : off+size : off+size]
		drawn[size] = true
	}
	if len(drawn) != len(smallPayloads)+len(bigPayloads) {
		t.Fatalf("the draw missed a payload size: drew %v", drawn)
	}
	for _, tc := range []struct {
		name string
		pair func(*testing.T) (net.Conn, net.Conn)
	}{
		{"mem", memPair},
		{"tls", tlsPair},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := tc.pair(t)
			link := newPeerLink("rx", client)
			stopped := make(chan struct{})
			go func() {
				link.writeLoop()
				close(stopped)
			}()
			defer link.close()
			go func() {
				for i, p := range sent {
					env := &wire.Envelope{Version: wire.ProtocolVersion, Type: "reuse",
						From: "tx", To: "rx", RequestID: uint64(i), Payload: p}
					for link.send(env) != nil {
						select {
						case <-link.done:
							return
						case <-time.After(time.Millisecond): // queue full: let the writer drain it
						}
					}
				}
			}()

			for i, want := range sent {
				env, err := wire.ReadEnvelope(server)
				if err != nil {
					t.Fatalf("envelope %d: %v", i, err)
				}
				if env.RequestID != uint64(i) {
					t.Fatalf("envelope %d arrived as number %d", i, env.RequestID)
				}
				if env.Type != "reuse" || env.From != "tx" || env.To != "rx" || !bytes.Equal(env.Payload, want) {
					t.Fatalf("envelope %d (%d-byte payload) corrupted: got %s/%s→%s with %d bytes",
						i, len(want), env.Type, env.From, env.To, len(env.Payload))
				}
			}
			link.close()
			<-stopped
			if c := cap(link.frame); c > wire.MaxReusedBuffer {
				t.Errorf("link keeps a %d-byte send buffer, over the %d-byte bound", c, wire.MaxReusedBuffer)
			}
		})
	}
}

// discardConn is a connection whose writes go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestLinkWriteAllocFree pins the reused send buffer: once it has grown to
// fit, framing and writing an envelope allocates nothing.
func TestLinkWriteAllocFree(t *testing.T) {
	link := newPeerLink("rx", discardConn{})
	env := &wire.Envelope{Version: wire.ProtocolVersion, Type: "result", From: "tx", To: "rx",
		RequestID: 1, Payload: make([]byte, 16<<10)}
	if err := link.write(env); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := link.write(env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a link write of a 16 KiB payload allocates %.1f times, want 0", allocs)
	}
}

// TestLinkDropsOversizedBuffer: a buffer grown for one big frame is not
// kept; the link goes on with the buffer it had.
func TestLinkDropsOversizedBuffer(t *testing.T) {
	link := newPeerLink("rx", discardConn{})
	for _, size := range []int{16 << 10, wire.MaxReusedBuffer + 1, 16 << 10} {
		env := &wire.Envelope{Version: wire.ProtocolVersion, Type: "result", Payload: make([]byte, size)}
		if err := link.write(env); err != nil {
			t.Fatal(err)
		}
		if c := cap(link.frame); c > wire.MaxReusedBuffer || c < 16<<10 {
			t.Fatalf("after a %d-byte payload the link keeps a %d-byte buffer, want 16 KiB..%d",
				size, c, wire.MaxReusedBuffer)
		}
	}
}
