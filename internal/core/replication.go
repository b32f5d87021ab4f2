// Fabric-side wiring for WAL-shipped standby replication: which server
// replicates into which, the promote/demote hooks that swap the serving
// layer in and out around a replica.Peer's role transitions, and the
// replication-aware restart path that resumes whatever role a server's
// durable replica metadata says it last held.
package core

import (
	"fmt"
	"path/filepath"

	"copernicus/internal/server"
	"copernicus/internal/store"
	"copernicus/internal/store/replica"
)

// replRole resolves server i's replication role from FabricConfig.Standbys:
// the state directory its Peer replicates from or into, its configured role,
// and the index of its counterpart. ok is false when i has no replication
// role.
//
// A primary replicates out of its own serving directory (server-i); a
// standby mirrors into a separate replica-i directory so its relay duties
// never mix with the warm copy. After a promotion the replica directory IS
// the serving directory — RestartServer follows the durable metadata, not
// the original naming.
func (f *Fabric) replRole(i int) (dir, role string, peerIdx int, ok bool) {
	for p, s := range f.cfg.Standbys {
		switch i {
		case p:
			return filepath.Join(f.cfg.StateDir, fmt.Sprintf("server-%d", i)),
				store.RolePrimary, s, true
		case s:
			return filepath.Join(f.cfg.StateDir, fmt.Sprintf("replica-%d", i)),
				store.RoleStandby, p, true
		}
	}
	return "", "", 0, false
}

// isStandbyIdx reports whether server i is configured as a standby (and so
// runs as a storeless relay until promoted).
func (f *Fabric) isStandbyIdx(i int) bool {
	for _, s := range f.cfg.Standbys {
		if s == i {
			return true
		}
	}
	return false
}

// validateStandbys rejects replication topologies the fabric cannot run.
func (c *FabricConfig) validateStandbys() error {
	if len(c.Standbys) == 0 {
		return nil
	}
	if c.StateDir == "" {
		return fmt.Errorf("core: FabricConfig.Standbys requires StateDir")
	}
	used := make(map[int]bool)
	for p, s := range c.Standbys {
		if p < 0 || p >= c.Servers || s < 0 || s >= c.Servers {
			return fmt.Errorf("core: standby mapping %d→%d outside server range [0,%d)", p, s, c.Servers)
		}
		if p == s {
			return fmt.Errorf("core: server %d cannot be its own standby", p)
		}
		if _, isPrimary := c.Standbys[s]; isPrimary {
			return fmt.Errorf("core: server %d is both a primary and a standby (chains are not supported)", s)
		}
		if used[s] {
			return fmt.Errorf("core: server %d is the standby of two primaries", s)
		}
		used[s] = true
	}
	return nil
}

// replStoreOptions are the options replica.Peer uses when it (re)opens a
// replica store — the standby mirror and the post-promotion recovery open.
// The WAL write hook is deliberately absent: chaos WAL faults target the
// primary's disk, and replicating the injected corruption would double-count
// every fault.
func (f *Fabric) replStoreOptions() store.Options {
	return store.Options{
		FsyncInterval: f.cfg.FsyncInterval,
		SnapshotEvery: f.cfg.SnapshotEvery,
		NoSync:        f.cfg.StoreNoSync,
		Obs:           f.cfg.Obs,
	}
}

// serverConfig builds server i's serving configuration around st (nil for a
// storeless relay).
func (f *Fabric) serverConfig(st *store.Store) server.Config {
	return server.Config{
		HeartbeatInterval: f.cfg.Heartbeat,
		FSToken:           f.cfg.FSToken,
		Store:             st,
		Obs:               f.cfg.Obs,
	}
}

// replConfig builds the replica.Config for server i acting as role against
// counterpart peerIdx, replicating via dir.
func (f *Fabric) replConfig(i, peerIdx int, dir, role string) replica.Config {
	return replica.Config{
		Dir:          dir,
		Role:         role,
		PeerID:       f.serverIDs[peerIdx],
		PeerAddr:     fmt.Sprintf("server-%d", peerIdx),
		SelfAddr:     fmt.Sprintf("server-%d", i),
		Interval:     f.cfg.ReplInterval,
		LeaseTimeout: f.cfg.LeaseTimeout,
		StoreOptions: f.replStoreOptions(),
		Hooks:        f.replHooks(i),
		Obs:          f.cfg.Obs,
	}
}

// replHooks connect server i's replica.Peer to the fabric's serving layer.
// Both hooks run on the Peer's own goroutine and swap f.Servers[i] /
// f.Stores[i] under the fabric lock, so tests watching the failover must
// read through Fabric.Server/Store/Peer rather than indexing the slices.
func (f *Fabric) replHooks(i int) replica.Hooks {
	return replica.Hooks{
		// Promote: the replica store has already been re-opened through the
		// normal recovery path (snapshot + tail replay, torn-tail handling).
		// Building a server on top of it replays that image — projects
		// resume, the queue re-seeds, orphaned commands requeue — exactly as
		// if the primary had restarted, just on this node.
		Promote: func(st *store.Store, epoch uint64) ([]string, error) {
			f.smu.Lock()
			defer f.smu.Unlock()
			f.Servers[i].Close() // retire the relay-only server
			srv := server.New(f.nodes[i], f.cfg.Registry, f.serverConfig(st))
			f.Servers[i] = srv
			f.Stores[i] = st
			f.cfg.Obs.Log.Named("core").Info("standby promoted to project server",
				"server", i, "epoch", epoch)
			return srv.ProjectNames(), nil
		},
		// Demote: a fenced ex-primary tears its serving side down; the Peer
		// then archives the divergent state directory and rejoins the new
		// primary as a standby. The node keeps relaying for its attached
		// workers in the meantime.
		Demote: func(epoch uint64, newPrimaryID string) error {
			f.smu.Lock()
			defer f.smu.Unlock()
			f.Servers[i].Close()
			if f.Stores[i] != nil {
				f.Stores[i].Close()
				f.Stores[i] = nil
			}
			f.Servers[i] = server.New(f.nodes[i], f.cfg.Registry, f.serverConfig(nil))
			f.cfg.Obs.Log.Named("core").Info("fenced server demoted to relay",
				"server", i, "epoch", epoch, "new_primary", newPrimaryID)
			return nil
		},
	}
}

// setupReplication creates the replica.Peer for every server with a
// replication role. Called by NewFabric after all server nodes exist (peers
// need each other's node IDs).
func (f *Fabric) setupReplication() error {
	for i := range f.Servers {
		dir, role, peerIdx, ok := f.replRole(i)
		if !ok {
			continue
		}
		var st *store.Store
		if role == store.RolePrimary {
			st = f.Stores[i] // standby peers open their own replica store
		}
		p, err := replica.NewPeer(f.nodes[i], st, f.replConfig(i, peerIdx, dir, role))
		if err != nil {
			return fmt.Errorf("core: replication peer for server %d: %w", i, err)
		}
		f.Peers[i] = p
	}
	return nil
}

// restartReplicated rebuilds a crashed server that has a replication role.
// Unlike the plain restart path, the role it comes back in is whatever its
// durable replica metadata recorded — an ex-primary that was fenced while
// down must resume as a standby, and a promoted standby must resume as a
// primary serving out of its replica directory.
func (f *Fabric) restartReplicated(i int) error {
	dir, role, peerIdx, _ := f.replRole(i)
	if meta, err := store.LoadReplicaMeta(dir); err != nil {
		return fmt.Errorf("core: restarting server %d: %w", i, err)
	} else if meta != nil && meta.Role != "" {
		role = meta.Role
	}

	node, err := f.relistenServer(i)
	if err != nil {
		return err
	}
	var st *store.Store
	if role == store.RolePrimary {
		if st, err = f.openStoreDir(dir); err != nil {
			node.Close()
			return fmt.Errorf("core: restarting server %d: %w", i, err)
		}
	}
	srv := server.New(node, f.cfg.Registry, f.serverConfig(st))
	peer, err := replica.NewPeer(node, st, f.replConfig(i, peerIdx, dir, role))
	if err != nil {
		srv.Close()
		if st != nil {
			st.Close()
		}
		node.Close()
		return fmt.Errorf("core: restarting server %d: %w", i, err)
	}

	f.smu.Lock()
	f.nodes[i] = node
	f.Stores[i] = st
	f.Servers[i] = srv
	f.Peers[i] = peer
	f.smu.Unlock()
	return f.reconnectClient(i)
}
