package overlay

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/wire"
)

const msgSlow = wire.MsgType("test-slow")

// blockingHandler registers a msgSlow handler on n that signals entered and
// then waits for release.
func blockingHandler(n *Node) (entered chan struct{}, release chan struct{}) {
	entered = make(chan struct{}, 4*maxLinkHandlers)
	release = make(chan struct{})
	n.Handle(msgSlow, func(string, []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return []byte("slow-done"), nil
	})
	return entered, release
}

func echo(_ string, p []byte) ([]byte, error) { return p, nil }

// TestBlockedHandlerDoesNotDelayLink: with one of a's handlers blocked on a
// request from b, the same link still serves b's next request, and still
// delivers b's reply to a request a itself makes.
func TestBlockedHandlerDoesNotDelayLink(t *testing.T) {
	a, b, _ := twoNodes(t)
	entered, release := blockingHandler(a)
	a.Handle(wire.MsgPing, echo)
	b.Handle(wire.MsgPing, echo)

	slow := make(chan error, 1)
	go func() {
		_, err := b.RequestTimeout(a.ID(), msgSlow, nil, 5*time.Second)
		slow <- err
	}()
	<-entered

	if _, err := b.RequestTimeout(a.ID(), wire.MsgPing, []byte("req"), time.Second); err != nil {
		t.Fatalf("second request behind a blocked handler: %v", err)
	}
	if _, err := a.RequestTimeout(b.ID(), wire.MsgPing, []byte("rep"), time.Second); err != nil {
		t.Fatalf("reply behind a blocked handler: %v", err)
	}
	select {
	case err := <-slow:
		t.Fatalf("blocked request returned early: %v", err)
	default:
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatalf("released request: %v", err)
	}
}

// TestCloseWithBlockedHandler: Close waits for a running handler, does not
// deadlock with requests that keep arriving while it waits, and the
// handler's late reply into the closed node is harmless.
func TestCloseWithBlockedHandler(t *testing.T) {
	a, b, _ := twoNodes(t)
	entered, release := blockingHandler(a)
	a.Handle(wire.MsgPing, echo)

	go func() { _, _ = b.RequestTimeout(a.ID(), msgSlow, nil, time.Second) }()
	<-entered

	// Requests race the close from several goroutines: each either gets in
	// before closed is set or is dropped, never a WaitGroup misuse.
	var spam sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		spam.Add(1)
		go func() {
			defer spam.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = b.RequestTimeout(a.ID(), wire.MsgPing, nil, 20*time.Millisecond)
				}
			}
		}()
	}
	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close deadlocked after the handler returned")
	}
	close(stop)
	spam.Wait()
}

// TestLinkHandlerCapBlocksReadLoop: with maxLinkHandlers handlers of one
// link running, the next request waits in the link (it is neither served nor
// dropped) and is served as soon as a handler returns.
func TestLinkHandlerCapBlocksReadLoop(t *testing.T) {
	a, b, _ := twoNodes(t)
	entered, release := blockingHandler(a)
	a.Handle(wire.MsgPing, echo)

	var done atomic.Int32
	for i := 0; i < maxLinkHandlers; i++ {
		go func() {
			if _, err := b.RequestTimeout(a.ID(), msgSlow, nil, 10*time.Second); err == nil {
				done.Add(1)
			}
		}()
	}
	for i := 0; i < maxLinkHandlers; i++ {
		<-entered
	}
	ping := make(chan error, 1)
	go func() {
		_, err := b.RequestTimeout(a.ID(), wire.MsgPing, nil, 5*time.Second)
		ping <- err
	}()
	select {
	case err := <-ping:
		t.Fatalf("request served past the per-link cap: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	release <- struct{}{} // one handler returns, one token frees
	select {
	case err := <-ping:
		if err != nil {
			t.Fatalf("request held at the cap was dropped: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("request held at the cap never served")
	}
	close(release)
	waitFor(t, func() bool { return done.Load() == maxLinkHandlers })
}

// TestFloodPassesNodeWithoutHandler: a one-way notice crosses a node that
// has no handler for its type, reaches the node behind it, and draws no
// reply — not even an error — from either.
func TestFloodPassesNodeWithoutHandler(t *testing.T) {
	a, b, c := chain(t)
	var got atomic.Int32
	c.Handle(wire.MsgWorkAvailable, func(from string, _ []byte) ([]byte, error) {
		if from != a.ID() {
			t.Errorf("notice from %s, want %s", from, a.ID())
		}
		got.Add(1)
		return nil, ErrNotHandled
	})
	// The listening side registers a link a moment after the dialler's
	// ConnectPeer returns.
	waitFor(t, func() bool { return len(a.Peers()) == 1 && len(b.Peers()) == 2 })
	a.Flood(wire.MsgWorkAvailable, nil)
	waitFor(t, func() bool { return got.Load() == 1 })
	time.Sleep(50 * time.Millisecond) // room for a stray reply to travel back
	sent := func(n, to *Node) uint64 {
		return n.Obs.Metrics.Counter("copernicus_overlay_messages_total", "",
			obs.L("node", n.ID(), "peer", to.ID(), "dir", "tx")).Value()
	}
	if n := sent(b, a) + sent(c, b); n != 0 {
		t.Errorf("%d envelopes travelled back toward the sender of a one-way notice", n)
	}
	if got.Load() != 1 {
		t.Errorf("notice delivered %d times", got.Load())
	}
}
