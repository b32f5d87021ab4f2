package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/server"
	"copernicus/internal/store"
	"copernicus/internal/store/replica"
)

// NewTLSNode is the preamble every binary shares: an identity (deterministic
// when seed is non-zero), an empty trust store (bootstrap mode until keys are
// added through Node.Trust), the TLS transport behind cc's fault injection,
// and a node reporting into o.
func NewTLSNode(seed uint64, cc chaos.Config, o *obs.Obs) (*overlay.Node, error) {
	id := overlay.NewIdentityFromSeed(seed)
	if seed == 0 {
		var err error
		if id, err = overlay.NewIdentity(); err != nil {
			return nil, fmt.Errorf("generating identity: %w", err)
		}
	}
	trust := overlay.NewTrustStore()
	tr, err := overlay.NewTLSTransport(id, trust)
	if err != nil {
		return nil, fmt.Errorf("tls transport: %w", err)
	}
	node := overlay.NewNode(id, trust, chaos.Wrap(tr, cc, o))
	node.Obs = o
	return node, nil
}

// ReplicationConfig gives a Host a replication role. Role, PeerID and
// PeerAddr are what the operator configured; the durable replica-meta.json
// in the state directory overrides all three, so a node that was promoted or
// fenced comes back in the role the protocol left it in, whatever its start
// script still says.
type ReplicationConfig struct {
	// Role is store.RolePrimary or store.RoleStandby.
	Role string
	// PeerID and PeerAddr name the counterpart. A standby needs one of them
	// (the ID is learnt by dialling the address); a primary learns both from
	// its standby's join.
	PeerID, PeerAddr string
	// SelfAddr is the address the counterpart can dial this node back on.
	SelfAddr string
	// Interval is the ship/heartbeat cadence, LeaseTimeout the contactless
	// time before a standby promotes; zero takes replica.Config's defaults.
	Interval, LeaseTimeout time.Duration
}

// HostConfig is everything a serving node is built from apart from its
// overlay node. The node's Obs bundle is the host's: server, store and
// replication all report into it.
type HostConfig struct {
	Registry *controller.Registry
	// Server is the serving configuration; its Store and Obs are the Host's
	// to set.
	Server server.Config
	// Store configures the durable state directory; an empty Dir keeps all
	// project state in memory.
	Store store.Options
	// Replication is nil for a node with no replication role.
	Replication *ReplicationConfig
}

// Host is one serving node: a server.Server on an overlay node, the durable
// store it journals to, and the replica.Peer that ships that journal or
// mirrors another node's. It is the only place these are put together —
// cmd/cpcserver, the Fabric and the Fabric's crash/restart path all call
// StartHost — and it owns the swap of (server, store) when the Peer promotes
// or demotes the node, so readers go through Server/Store/Peer.
type Host struct {
	node *overlay.Node
	cfg  HostConfig
	log  *obs.Logger

	mu   sync.Mutex
	srv  *server.Server
	st   *store.Store
	peer *replica.Peer
}

// StartHost assembles and starts a serving node on node, which must already
// be listening. A primary or unreplicated node opens cfg.Store.Dir and
// replays it; a standby serves as a storeless relay while its Peer mirrors
// the primary into that directory. The caller keeps ownership of node and
// closes it after Host.Close.
func StartHost(node *overlay.Node, cfg HostConfig) (*Host, error) {
	cfg.Server.Obs, cfg.Store.Obs = node.Obs, node.Obs
	h := &Host{node: node, cfg: cfg, log: node.Obs.Log.Named("host").With("node", node.ID())}

	var rcfg replica.Config
	var meta *store.ReplicaMeta
	if r := cfg.Replication; r != nil {
		if cfg.Store.Dir == "" {
			return nil, errors.New("core: replication requires a state directory")
		}
		var err error
		if meta, err = store.LoadReplicaMeta(cfg.Store.Dir); err != nil {
			return nil, fmt.Errorf("core: reading replica metadata in %s: %w", cfg.Store.Dir, err)
		}
		rcfg = replica.Resume(replica.Config{
			Dir:          cfg.Store.Dir,
			Role:         r.Role,
			PeerID:       r.PeerID,
			PeerAddr:     r.PeerAddr,
			SelfAddr:     r.SelfAddr,
			Interval:     r.Interval,
			LeaseTimeout: r.LeaseTimeout,
			StoreOptions: cfg.Store,
			Obs:          node.Obs,
		}, meta)
	}

	var st *store.Store
	if cfg.Store.Dir != "" && rcfg.Role != store.RoleStandby {
		var err error
		if st, err = store.Open(cfg.Store); err != nil {
			return nil, fmt.Errorf("core: opening state dir %s: %w", cfg.Store.Dir, err)
		}
	}
	h.serve(st)
	if cfg.Replication == nil {
		return h, nil
	}

	h.log.Info("replication role resolved", "role", rcfg.Role, "configured", cfg.Replication.Role,
		"peer", rcfg.PeerID, "peer_addr", rcfg.PeerAddr)
	rcfg.Hooks = replica.Hooks{
		// Promote: the Peer has re-opened the replica directory through
		// the normal recovery path; serving it replays that image —
		// projects resume, the queue re-seeds, orphans requeue — exactly
		// as if the primary had restarted, just on this node.
		Promote: func(recovered *store.Store, epoch uint64) ([]string, error) {
			names := h.serve(recovered).ProjectNames()
			h.log.Info("promoted to project server", "epoch", epoch, "projects", len(names))
			return names, nil
		},
		// Demote: a fenced ex-primary drops its serving side (the Peer
		// then archives the divergent directory and rejoins as standby)
		// but keeps relaying for its attached workers.
		Demote: func(epoch uint64, newPrimaryID string) error {
			h.serve(nil)
			h.log.Info("fenced; demoted to relay", "epoch", epoch, "new_primary", newPrimaryID)
			return nil
		},
	}
	peer, err := replica.NewPeer(node, st, rcfg, meta)
	if err != nil {
		h.Close()
		return nil, fmt.Errorf("core: starting replication peer: %w", err)
	}
	h.peer = peer // nobody else holds h yet
	return h, nil
}

// serve retires whatever the node was serving and serves st instead (nil: a
// storeless relay).
func (h *Host) serve(st *store.Store) *server.Server {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.retireLocked()
	cfg := h.cfg.Server
	cfg.Store = st
	h.st, h.srv = st, server.New(h.node, h.cfg.Registry, cfg)
	return h.srv
}

// retireLocked closes the serving side: the server, then the store it
// journals to. No snapshot is written, so the directory is left exactly as a
// kill -9 would leave it.
func (h *Host) retireLocked() {
	if h.srv != nil {
		h.srv.Close()
	}
	if h.st != nil {
		h.st.Close()
		h.st = nil
	}
}

// Server returns the current serving instance. It changes when the node is
// promoted or fenced, so callers racing a failover must not cache it.
func (h *Host) Server() *server.Server {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.srv
}

// Store returns the store currently served from: nil for a storeless relay,
// a standby, and a closed Host.
func (h *Host) Store() *store.Store {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st
}

// Peer returns the replication peer: nil when the node has no replication
// role, and after Close.
func (h *Host) Peer() *replica.Peer {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peer
}

// Close stops the node serving: the Peer first, outside the lock (its loop
// may be inside a promote/demote hook, and Close waits for that loop), then
// the server and its store. Closing the overlay node afterwards is a crash;
// there is no gentler shutdown to distinguish it from.
func (h *Host) Close() {
	h.mu.Lock()
	peer := h.peer
	h.peer = nil
	h.mu.Unlock()
	if peer != nil {
		peer.Close()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.retireLocked()
}
