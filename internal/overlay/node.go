package overlay

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/retry"
	"copernicus/internal/wire"
)

// ErrNotHandled is returned by a Handler to decline a request addressed to
// "any server" (empty To); the node then forwards it deeper into the
// overlay — this implements the paper's routing "to the first server with
// available commands".
var ErrNotHandled = errors.New("overlay: request not handled here")

// ErrNoRoute is returned by Request when the node has no peer link that
// could carry the envelope (and no local handler that could answer it), so
// waiting out the deadline would be pointless. Retry layers treat this as
// transient: a reconnect or re-home may restore a route.
var ErrNoRoute = errors.New("overlay: no route to peer")

// ErrProtoVersion re-exports the wire sentinel: a handshake against a node
// speaking a different protocol version fails with an error matching
// errors.Is(err, overlay.ErrProtoVersion).
var ErrProtoVersion = wire.ErrProtoVersion

// RemoteError is an error reply produced by the remote handler. Its
// presence means the request WAS delivered and answered — retrying will not
// change the outcome — which is how retry policies distinguish application
// failures from transport failures. Code, when non-empty, is the wire error
// class (wire.ErrCode* constants); Unwrap maps it back to the matching
// sentinel so errors.Is(err, wire.ErrQuotaExceeded) works through the
// overlay.
type RemoteError struct {
	Msg  string
	Code string
}

func (e *RemoteError) Error() string { return "overlay: remote error: " + e.Msg }

// Unwrap exposes the sentinel behind Code (nil for uncoded errors), letting
// errors.Is match remote admission-control failures across the network.
func (e *RemoteError) Unwrap() error { return wire.SentinelFor(e.Code) }

// Handler processes a request payload from a peer and returns the reply
// payload. Returning ErrNotHandled forwards the request instead (only
// meaningful for anycast requests).
//
// A request that arrives over a peer link is handled on a goroutine of its
// own (see serve), so a handler may block — on an fsync, on a parked
// announce — without delaying the link's other requests or the replies to
// this node's own requests. Handlers of one link therefore run concurrently
// and in no particular order; a sender that needs one request applied before
// the next waits for the first one's reply, as every in-tree sender that
// cares does (partial results, WAL shipping). Close waits for
// running handlers, so whatever a handler blocks on must be released before
// the node is closed.
type Handler func(from string, payload []byte) ([]byte, error)

// DefaultTTL bounds forwarding hops; overlays in the paper are a handful of
// servers, so a small TTL suffices.
const DefaultTTL = 8

// DefaultRequestTimeout is the per-request deadline used when none is given.
const DefaultRequestTimeout = 30 * time.Second

// Node is one overlay participant: it listens for peers, dials others, and
// routes envelopes. All servers run identical node code; their role is
// determined by the handlers registered on top (the paper's symmetric
// architecture).
type Node struct {
	id    *Identity
	trust *TrustStore
	tr    Transport

	mu       sync.RWMutex
	peers    map[string]*peerLink // node ID → link
	handlers map[wire.MsgType]Handler
	pending  map[uint64]chan *wire.Envelope
	closed   bool
	// latency holds Request's latency series by message type, each resolved
	// on the type's first request.
	latency map[wire.MsgType]*obs.Histogram

	listeners []net.Listener
	reqID     atomic.Uint64
	seen      *seenCache
	wg        sync.WaitGroup

	// Obs receives diagnostics, per-peer traffic metrics and request
	// latencies; defaults to a silent obs.New(). Set it (or share a
	// deployment-wide bundle) before Listen/ConnectPeer.
	Obs *obs.Obs
}

// linkQueueDepth bounds each peer link's outbound envelope queue. A full
// queue drops the envelope with an error instead of blocking the sender:
// the retry layer re-issues requests, and a dropped reply surfaces as a
// requester-side timeout — the same observable behaviour as a congested
// real link.
const linkQueueDepth = 512

// maxLinkHandlers caps the request handlers one peer link may have running
// at once, so a peer cannot make this node spawn goroutines without bound.
// At the cap the link's read loop blocks until a handler returns.
const maxLinkHandlers = 128

type peerLink struct {
	id   string
	conn net.Conn

	out   chan *wire.Envelope
	done  chan struct{}
	frame []byte // the write loop's send buffer
	once  sync.Once
	// handlers holds one token per running request handler of this link.
	handlers chan struct{}

	// Per-peer traffic series and the node's error counter, resolved once
	// at addPeer.
	rxMsgs, txMsgs   *obs.Counter
	rxBytes, txBytes *obs.Counter
	errs             *obs.Counter
	log              *obs.Logger
}

func newPeerLink(id string, conn net.Conn) *peerLink {
	return &peerLink{
		id:       id,
		conn:     conn,
		out:      make(chan *wire.Envelope, linkQueueDepth),
		done:     make(chan struct{}),
		handlers: make(chan struct{}, maxLinkHandlers),
	}
}

// send queues env for delivery. It never blocks on the network: readers
// forward and reply from their own goroutine, so a synchronous write could
// head-of-line block two nodes writing to each other into a deadlock. A
// closed link or a full queue reports an error immediately instead.
func (p *peerLink) send(env *wire.Envelope) error {
	select {
	case <-p.done:
		return fmt.Errorf("overlay: link to %s closed", p.id)
	default:
	}
	select {
	case p.out <- env:
		return nil
	default:
		return fmt.Errorf("overlay: link to %s congested, envelope dropped", p.id)
	}
}

// writeLoop drains the outbound queue onto the wire; it owns all writes to
// the connection, preserving envelope order. Any write error severs the
// link (length-prefixed framing cannot resync mid-frame).
func (p *peerLink) writeLoop() {
	for {
		select {
		case env := <-p.out:
			if err := p.write(env); err != nil {
				p.close()
				return
			}
		case <-p.done:
			return
		}
	}
}

// write frames env into the link's reused send buffer — a value body is
// encoded straight into it — and writes it. An envelope that cannot be
// framed is dropped and counted: nothing of it reached the connection, so
// the link and the other requests on it carry on, and its own request times
// out. Only a failed write, which may leave the stream mid-frame, is
// returned.
func (p *peerLink) write(env *wire.Envelope) error {
	frame, err := wire.AppendEnvelope(p.frame[:0], env)
	if err != nil {
		p.errs.Inc()
		p.log.Warn("dropping an envelope that cannot be framed", "peer", p.id, "type", string(env.Type), "err", err)
		return nil
	}
	if cap(frame) <= wire.MaxReusedBuffer {
		p.frame = frame
	}
	if _, err := p.conn.Write(frame); err != nil {
		return err
	}
	p.txMsgs.Inc()
	p.txBytes.Add(uint64(env.PayloadLen()))
	return nil
}

// close severs the link: the writer exits, queued envelopes are discarded,
// and further sends fail fast.
func (p *peerLink) close() {
	p.once.Do(func() { close(p.done) })
	p.conn.Close()
}

// NewNode creates a node with the given identity, trust store and transport.
func NewNode(id *Identity, trust *TrustStore, tr Transport) *Node {
	n := &Node{
		id:       id,
		trust:    trust,
		tr:       tr,
		peers:    make(map[string]*peerLink),
		handlers: make(map[wire.MsgType]Handler),
		pending:  make(map[uint64]chan *wire.Envelope),
		latency:  make(map[wire.MsgType]*obs.Histogram),
		seen:     newSeenCache(4096),
		Obs:      obs.New(),
	}
	n.reqID.Store(uint64(time.Now().UnixNano()) << 20)
	return n
}

// log returns the overlay-tagged logger.
func (n *Node) log() *obs.Logger { return n.Obs.Log.Named("overlay") }

// ID returns the node's overlay ID.
func (n *Node) ID() string { return n.id.ID }

// Identity returns the node's identity (for key exchange).
func (n *Node) Identity() *Identity { return n.id }

// Trust returns the node's trust store.
func (n *Node) Trust() *TrustStore { return n.trust }

// Handle registers the handler for a message type. Must be called before
// traffic arrives. See Handler for how handlers are run.
func (n *Node) Handle(t wire.MsgType, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[t] = h
}

// Listen starts accepting peer connections on addr.
func (n *Node) Listen(addr string) error {
	l, err := n.tr.Listen(addr)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.listeners = append(n.listeners, l)
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				if err := n.handleInbound(conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					n.log().Warn("inbound connection failed", "node", n.id.ID, "err", err)
				}
			}()
		}
	}()
	return nil
}

// handshake exchanges identity proofs over a fresh connection: each side
// sends its public key and a signature over a transcript tag, and checks the
// peer against the trust store.
func (n *Node) handshake(conn net.Conn, initiator bool) (string, error) {
	const tag = "copernicus-overlay-hello-v1"
	hello := &wire.Envelope{
		Version: wire.ProtocolVersion,
		Type:    "hello",
		From:    n.id.ID,
		Payload: append(append([]byte(nil), n.id.Pub...), n.id.Sign([]byte(tag))...),
	}
	send := func() error { return wire.WriteEnvelope(conn, hello) }
	recv := func() (string, error) {
		// A connection that cannot take a deadline is already dead, and the
		// read below says how it died.
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		defer conn.SetReadDeadline(time.Time{})
		env, err := wire.ReadEnvelope(conn)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// A peer that cannot parse our hello says nothing and hangs up:
			// what a node older than the binary envelope does.
			return "", fmt.Errorf("overlay: peer hung up during the hello; it may speak another protocol version (this node speaks protocol version %d): %w",
				wire.ProtocolVersion, err)
		}
		if err != nil {
			return "", fmt.Errorf("overlay: reading hello: %w", err)
		}
		if env.Type != "hello" || len(env.Payload) < ed25519.PublicKeySize {
			return "", fmt.Errorf("overlay: malformed hello from %s", env.From)
		}
		pub := ed25519.PublicKey(env.Payload[:ed25519.PublicKeySize])
		sig := env.Payload[ed25519.PublicKeySize:]
		if NodeID(pub) != env.From {
			return "", fmt.Errorf("overlay: hello ID %s does not match key", env.From)
		}
		if !Verify(pub, []byte(tag), sig) {
			return "", fmt.Errorf("overlay: bad hello signature from %s", env.From)
		}
		if !n.trust.Trusted(pub) {
			return "", fmt.Errorf("overlay: peer %s not trusted", env.From)
		}
		return env.From, nil
	}
	if initiator {
		if err := send(); err != nil {
			return "", err
		}
		return recv()
	}
	peer, err := recv()
	if err != nil {
		return "", err
	}
	return peer, send()
}

func (n *Node) handleInbound(conn net.Conn) error {
	peerID, err := n.handshake(conn, false)
	if err != nil {
		conn.Close()
		return err
	}
	link, err := n.addPeer(peerID, conn)
	if err != nil {
		return err
	}
	return n.runPeer(link)
}

// ConnectPeer dials addr, performs the handshake, and adds the peer link.
// It returns the peer's node ID. The link is usable as soon as ConnectPeer
// returns. A closed node does not dial: its handshake would still complete,
// and the remote would replace any live link under the same node ID (a
// restarted process's) with one that dies at once.
func (n *Node) ConnectPeer(addr string) (string, error) {
	n.mu.RLock()
	closed := n.closed
	n.mu.RUnlock()
	if closed {
		return "", fmt.Errorf("overlay: dialing %s: %w", addr, net.ErrClosed)
	}
	conn, err := n.tr.Dial(addr)
	if err != nil {
		return "", fmt.Errorf("overlay: dialing %s: %w", addr, err)
	}
	peerID, err := n.handshake(conn, true)
	if err != nil {
		conn.Close()
		return "", err
	}
	link, err := n.addPeer(peerID, conn)
	if err != nil {
		return "", err
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := n.runPeer(link); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			n.log().Warn("peer link failed", "node", n.id.ID, "peer", peerID, "err", err)
		}
	}()
	return peerID, nil
}

// addPeer registers a completed connection in the peer table, replacing any
// stale link with the same ID.
func (n *Node) addPeer(peerID string, conn net.Conn) (*peerLink, error) {
	link := newPeerLink(peerID, conn)
	const (
		msgsName  = "copernicus_overlay_messages_total"
		msgsHelp  = "Envelopes exchanged with a peer, by direction."
		bytesName = "copernicus_overlay_payload_bytes_total"
		bytesHelp = "Envelope payload bytes exchanged with a peer, by direction."
	)
	m := n.Obs.Metrics
	link.rxMsgs = m.Counter(msgsName, msgsHelp, obs.L("node", n.id.ID, "peer", peerID, "dir", "rx"))
	link.txMsgs = m.Counter(msgsName, msgsHelp, obs.L("node", n.id.ID, "peer", peerID, "dir", "tx"))
	link.rxBytes = m.Counter(bytesName, bytesHelp, obs.L("node", n.id.ID, "peer", peerID, "dir", "rx"))
	link.txBytes = m.Counter(bytesName, bytesHelp, obs.L("node", n.id.ID, "peer", peerID, "dir", "tx"))
	link.errs, link.log = n.sendErrors(), n.log()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		conn.Close()
		return nil, net.ErrClosed
	}
	if old, ok := n.peers[peerID]; ok {
		old.close()
	}
	n.peers[peerID] = link
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		link.writeLoop()
	}()
	return link, nil
}

// runPeer pumps envelopes until the connection dies, then unregisters it.
func (n *Node) runPeer(link *peerLink) error {
	defer func() {
		link.close()
		n.mu.Lock()
		if n.peers[link.id] == link {
			delete(n.peers, link.id)
		}
		n.mu.Unlock()
	}()
	for {
		env, err := wire.ReadEnvelope(link.conn)
		if err != nil {
			return err
		}
		link.rxMsgs.Inc()
		link.rxBytes.Add(uint64(len(env.Payload)))
		n.route(env, link)
	}
}

// Peers returns the connected peer IDs.
func (n *Node) Peers() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.peers))
	for id := range n.peers {
		out = append(out, id)
	}
	return out
}

// NotifyPeers sends one request to every currently connected peer in
// parallel, ignoring individual failures, and waits for all attempts to
// settle or time out. It is a best-effort broadcast for control-plane
// announcements (e.g. a promoted standby claiming ownership): peers without
// a handler for the type simply return an error reply, which is discarded.
// body is taken as by Request, and marshalled, if at all, once for all
// peers.
func (n *Node) NotifyPeers(t wire.MsgType, body any, timeout time.Duration) {
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	env, err := n.envelope(t, body)
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for _, id := range n.Peers() {
		env := env
		env.To = id
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			_, _ = n.request(ctx, &env)
		}()
	}
	wg.Wait()
}

// Close shuts the node down: all listeners and peer links are closed.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	ls := n.listeners
	links := make([]*peerLink, 0, len(n.peers))
	for _, p := range n.peers {
		links = append(links, p)
	}
	pend := n.pending
	n.pending = make(map[uint64]chan *wire.Envelope)
	n.mu.Unlock()

	for _, l := range ls {
		l.Close()
	}
	for _, p := range links {
		p.close()
	}
	for _, ch := range pend {
		close(ch)
	}
	n.wg.Wait()
}

// Request sends a request and waits for the reply, bounded by ctx. An empty
// `to` addresses the first server in the overlay whose handler accepts the
// message type (anycast); otherwise the envelope is routed to the named
// node. A ctx without a deadline gets DefaultRequestTimeout. Error replies
// from the remote handler surface as *RemoteError; a node with no usable
// route fails fast with ErrNoRoute instead of waiting out the deadline.
//
// body is the request's payload, taken as wire.Envelope.SetBody takes it: a
// []byte is sent as it is, a registered wire type is encoded by each link's
// writer straight into its frame, and any other type is marshalled here. A
// body the codec refuses fails the request at once with Marshal's error,
// marked permanent for retry.Policy: nothing was sent, and the same body would
// be refused again. The body is handed over for good: it must not be written
// after the call, even after a timeout, because a queued frame may still be
// encoded from it.
func (n *Node) Request(ctx context.Context, to string, t wire.MsgType, body any) ([]byte, error) {
	env, err := n.envelope(t, body)
	if err != nil {
		return nil, err
	}
	env.To = to
	return n.request(ctx, &env)
}

// envelope returns a request of type t from this node carrying body, not yet
// numbered.
func (n *Node) envelope(t wire.MsgType, body any) (wire.Envelope, error) {
	env := wire.Envelope{Version: wire.ProtocolVersion, Type: t, From: n.id.ID, TTL: DefaultTTL}
	if err := env.SetBody(body); err != nil {
		return env, retry.Permanent(err)
	}
	return env, nil
}

// request numbers env, routes it and waits for the reply, as Request.
func (n *Node) request(ctx context.Context, env *wire.Envelope) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultRequestTimeout)
		defer cancel()
	}
	to, t := env.To, env.Type
	start := time.Now()
	id := n.reqID.Add(1)
	ch := make(chan *wire.Envelope, 1)
	n.mu.Lock()
	latency := n.latency[t]
	if latency == nil {
		latency = n.Obs.Metrics.Histogram("copernicus_overlay_request_seconds",
			"Round-trip latency of overlay requests, by message type.",
			nil, obs.L("node", n.id.ID, "type", string(t)))
		n.latency[t] = latency
	}
	defer func() { latency.Observe(time.Since(start).Seconds()) }()
	if n.closed {
		n.mu.Unlock()
		return nil, net.ErrClosed
	}
	// Fast-fail when nothing could possibly answer: no peers to carry the
	// envelope, and no local handler that could accept it (locally-routable
	// only for self- or anycast-addressed requests).
	if len(n.peers) == 0 && to != n.id.ID {
		localOK := to == "" && n.handlers[t] != nil
		if !localOK {
			n.mu.Unlock()
			return nil, fmt.Errorf("overlay: request %v to %q: %w", t, to, ErrNoRoute)
		}
	}
	n.pending[id] = ch
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pending, id)
		n.mu.Unlock()
	}()

	env.RequestID = id
	n.route(env, nil)

	select {
	case reply, ok := <-ch:
		if !ok {
			return nil, net.ErrClosed
		}
		if reply.Err != "" {
			return nil, &RemoteError{Msg: reply.Err, Code: reply.ErrCode}
		}
		return reply.Payload, nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			n.Obs.Metrics.Counter("copernicus_overlay_request_timeouts_total",
				"Overlay requests that hit their deadline, by message type.",
				obs.L("node", n.id.ID, "type", string(t))).Inc()
			return nil, fmt.Errorf("overlay: request %v to %q timed out after %v: %w", t, to, time.Since(start).Round(time.Millisecond), ctx.Err())
		}
		return nil, fmt.Errorf("overlay: request %v to %q cancelled: %w", t, to, ctx.Err())
	}
}

// RequestTimeout is a convenience wrapper for callers (mostly tests) that
// think in deadlines rather than contexts. A non-positive timeout selects
// DefaultRequestTimeout.
func (n *Node) RequestTimeout(to string, t wire.MsgType, body any, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return n.Request(ctx, to, t, body)
}

// Flood sends a one-way notice to every node the overlay can reach: the
// envelope is anycast-addressed and has no pending entry, so a node without
// a handler for t passes it on and nobody replies. A handler that wants the
// notice to travel further returns ErrNotHandled, as for any anycast request.
// Delivery is best effort (a congested link drops it).
func (n *Node) Flood(t wire.MsgType, payload []byte) {
	env := &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      t,
		From:      n.id.ID,
		RequestID: n.reqID.Add(1),
		TTL:       DefaultTTL,
		Payload:   payload,
	}
	// Marked seen so that a copy echoed back around a cycle stops here.
	n.seen.firstTime(env.From, env.RequestID, false)
	n.forward(env, "")
}

// route processes an envelope arriving over link (nil = locally created).
// Replies and forwarding are handled inline — they never block, and a reply
// must never queue behind a handler — while a request for this node is
// handed to serve.
func (n *Node) route(env *wire.Envelope, link *peerLink) {
	if !n.seen.firstTime(env.From, env.RequestID, env.IsReply) {
		return
	}
	origin := ""
	if link != nil {
		origin = link.id
	}

	if env.IsReply {
		if env.To == n.id.ID {
			// Deliver while holding the read lock: Close swaps the pending
			// map under the write lock before closing the channels, so a
			// send that found ch here can never race the close.
			n.mu.RLock()
			if ch := n.pending[env.RequestID]; ch != nil {
				select {
				case ch <- env:
				default:
				}
			}
			n.mu.RUnlock()
			return
		}
		n.forward(env, origin)
		return
	}

	// Request: try locally when addressed to us or to anyone.
	if env.To == n.id.ID || env.To == "" {
		n.mu.RLock()
		h := n.handlers[env.Type]
		n.mu.RUnlock()
		if h != nil {
			n.serve(h, env, link)
			return
		}
		if env.To == n.id.ID {
			n.reply(env, nil, fmt.Errorf("no handler for %q", env.Type), origin)
			return
		}
		// Anycast fall-through: not handled here, forward.
	}
	n.forward(env, origin)
}

// serve runs a request's handler. A locally created request is served on
// the caller's goroutine (it is waiting for the reply anyway); one that
// arrived over a link gets a goroutine of its own, so the link's read loop is
// free for the next envelope whatever the handler waits for. The goroutine
// is tracked by n.wg — added under n.mu with closed checked (Close sets it
// under the write lock before it waits), so the Add cannot race the Wait —
// and holds one of the link's maxLinkHandlers tokens; with none free the
// read loop blocks here.
func (n *Node) serve(h Handler, env *wire.Envelope, link *peerLink) {
	if link == nil {
		n.handle(h, env, "")
		return
	}
	select {
	case link.handlers <- struct{}{}:
	case <-link.done:
		return
	}
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		<-link.handlers
		return
	}
	n.wg.Add(1)
	n.mu.RUnlock()
	go func() {
		defer n.wg.Done()
		n.handle(h, env, link.id)
		<-link.handlers
	}()
}

// handle is the one place a request handler is invoked: it runs h on env and
// replies, or forwards an anycast request the handler declined.
func (n *Node) handle(h Handler, env *wire.Envelope, origin string) {
	payload, err := env.PayloadBytes()
	var reply []byte
	if err == nil {
		reply, err = h(env.From, payload)
	}
	if errors.Is(err, ErrNotHandled) {
		n.forward(env, origin)
		return
	}
	n.reply(env, reply, err, origin)
}

// reply sends a response back toward the requester.
func (n *Node) reply(req *wire.Envelope, payload []byte, err error, origin string) {
	rep := &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      req.Type,
		From:      n.id.ID,
		To:        req.From,
		RequestID: req.RequestID,
		IsReply:   true,
		TTL:       DefaultTTL,
		Payload:   payload,
	}
	if err != nil {
		rep.Err = err.Error()
		rep.ErrCode = wire.CodeOf(err)
	}
	if req.From == n.id.ID {
		// Local request answered locally.
		n.route(rep, nil)
		return
	}
	// Prefer the link the request came in on; fall back to flooding.
	n.mu.RLock()
	link := n.peers[origin]
	n.mu.RUnlock()
	if link != nil {
		if sendErr := link.send(rep); sendErr == nil {
			return
		}
		n.sendErrors().Inc()
	}
	n.forward(rep, "")
}

// forward floods an envelope to all peers except the origin, decrementing
// the TTL.
func (n *Node) forward(env *wire.Envelope, origin string) {
	if env.TTL <= 0 {
		return
	}
	out := *env
	out.TTL = env.TTL - 1
	n.mu.RLock()
	links := make([]*peerLink, 0, len(n.peers))
	for id, p := range n.peers {
		if id != origin {
			links = append(links, p)
		}
	}
	n.mu.RUnlock()
	for _, p := range links {
		if err := p.send(&out); err != nil {
			n.sendErrors().Inc()
			n.log().Warn("forwarding failed", "node", n.id.ID, "peer", p.id, "err", err)
		}
	}
}

// sendErrors returns the overlay send-error counter.
func (n *Node) sendErrors() *obs.Counter {
	return n.Obs.Metrics.Counter("copernicus_overlay_errors_total",
		"Failed envelope sends to peers.", obs.L("node", n.id.ID))
}

// seenKey identifies one flooded envelope: comparable, so looking it up
// allocates nothing.
type seenKey struct {
	from    string
	reqID   uint64
	isReply bool
}

// seenCache deduplicates flooded envelopes with a bounded FIFO set: a map
// for membership and a ring, oldest key at head once it is full. Both start
// empty and grow with the traffic, so a node that floods little pays little.
type seenCache struct {
	mu    sync.Mutex
	limit int
	ring  []seenKey // appended to up to limit keys, then head wraps over it
	head  int
	set   map[seenKey]struct{}
}

func newSeenCache(limit int) *seenCache {
	return &seenCache{limit: limit, set: make(map[seenKey]struct{})}
}

// firstTime records the key and reports whether it was new.
func (s *seenCache) firstTime(from string, reqID uint64, isReply bool) bool {
	key := seenKey{from, reqID, isReply}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.set[key]; ok {
		return false
	}
	if len(s.ring) < s.limit {
		s.ring = append(s.ring, key)
	} else {
		delete(s.set, s.ring[s.head])
		s.ring[s.head] = key
		s.head = (s.head + 1) % len(s.ring)
	}
	s.set[key] = struct{}{}
	return true
}

// ListenAddrs returns the bound addresses of all active listeners (useful
// with ":0" ephemeral ports).
func (n *Node) ListenAddrs() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.listeners))
	for _, l := range n.listeners {
		out = append(out, l.Addr().String())
	}
	return out
}
