package overlay

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"fmt"
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
// through two links' write loops at once, whose send buffers are reused,
// grown and dropped along the way, and checks every byte and the order of
// what the far ends read. About half the envelopes carry their bytes as the
// Output of a *wire.CommandResult body, which each link encodes straight into
// its own buffer from the one value both share — a forward to two peers.
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
	asResult := make([]bool, n)
	for i := range asResult {
		asResult[i] = r.Intn(2) == 0
	}
	envelope := func(i int) *wire.Envelope {
		env := &wire.Envelope{Version: wire.ProtocolVersion, Type: "reuse",
			From: "tx", To: "rx", RequestID: uint64(i), Payload: sent[i]}
		if asResult[i] {
			if err := env.SetBody(&wire.CommandResult{CommandID: fmt.Sprint("c", i), OK: true,
				Output: sent[i], WallSeconds: float64(i)}); err != nil {
				panic(err)
			}
		}
		return env
	}
	// check reports how envelope i arrived, "" when whole.
	check := func(i int, env *wire.Envelope) string {
		if env.RequestID != uint64(i) {
			return fmt.Sprintf("arrived as number %d", env.RequestID)
		}
		if env.Type != "reuse" || env.From != "tx" || env.To != "rx" {
			return fmt.Sprintf("arrived as %s/%s→%s", env.Type, env.From, env.To)
		}
		got := env.Payload
		if asResult[i] {
			var res wire.CommandResult
			if err := wire.Unmarshal(env.Payload, &res); err != nil {
				return err.Error()
			}
			if res.CommandID != fmt.Sprint("c", i) || !res.OK || res.WallSeconds != float64(i) {
				return fmt.Sprintf("result body arrived as %s/%v/%v", res.CommandID, res.OK, res.WallSeconds)
			}
			got = res.Output
		}
		if !bytes.Equal(got, sent[i]) {
			return fmt.Sprintf("%d-byte payload corrupted: got %d bytes", len(sent[i]), len(got))
		}
		return ""
	}
	for _, tc := range []struct {
		name string
		pair func(*testing.T) (net.Conn, net.Conn)
	}{
		{"mem", memPair},
		{"tls", tlsPair},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var links []*peerLink
			var servers []net.Conn
			stopped := make(chan struct{}, 2)
			for range 2 {
				client, server := tc.pair(t)
				link := newPeerLink("rx", client)
				go func() {
					link.writeLoop()
					stopped <- struct{}{}
				}()
				defer link.close()
				links, servers = append(links, link), append(servers, server)
			}
			go func() {
				for i := range sent {
					env := envelope(i)
					for _, link := range links {
						for link.send(env) != nil {
							select {
							case <-link.done:
								return
							case <-time.After(time.Millisecond): // queue full: let the writer drain it
							}
						}
					}
				}
			}()

			failed := make(chan string, 2)
			for k, server := range servers {
				go func() {
					for i := range sent {
						env, err := wire.ReadEnvelope(server)
						if err != nil {
							failed <- fmt.Sprintf("peer %d, envelope %d: %v", k, i, err)
							return
						}
						if msg := check(i, env); msg != "" {
							failed <- fmt.Sprintf("peer %d, envelope %d (result body %v): %s", k, i, asResult[i], msg)
							return
						}
					}
					failed <- ""
				}()
			}
			for range servers {
				if msg := <-failed; msg != "" {
					t.Fatal(msg)
				}
			}
			for _, link := range links {
				link.close()
				<-stopped
				if c := cap(link.frame); c > wire.MaxReusedBuffer {
					t.Errorf("link keeps a %d-byte send buffer, over the %d-byte bound", c, wire.MaxReusedBuffer)
				}
			}
		})
	}
}

// discardConn is a connection whose writes go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestLinkWriteAllocFree pins the reused send buffer: once it has grown to
// fit, framing and writing an envelope allocates nothing, whether it carries
// a 16 KiB payload or a result body with a 16 KiB output, which is encoded
// straight into the buffer.
func TestLinkWriteAllocFree(t *testing.T) {
	result := &wire.Envelope{Version: wire.ProtocolVersion, Type: "result", From: "tx", To: "rx", RequestID: 1}
	if err := result.SetBody(&wire.CommandResult{CommandID: "p/c1", Project: "p", WorkerID: "w", OK: true,
		Output: make([]byte, 16<<10), CoresUsed: 1, WallSeconds: 0.5}); err != nil {
		t.Fatal(err)
	}
	for name, env := range map[string]*wire.Envelope{
		"16 KiB payload": {Version: wire.ProtocolVersion, Type: "result", From: "tx", To: "rx",
			RequestID: 1, Payload: make([]byte, 16<<10)},
		"result body with a 16 KiB output": result,
	} {
		link := newPeerLink("rx", discardConn{})
		if err := link.write(env); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := link.write(env); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("a link write of a %s allocates %.1f times, want 0", name, allocs)
		}
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
