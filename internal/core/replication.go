// The Fabric's deployment input to each server's Host: which server
// replicates into which, and where each keeps its state.
package core

import (
	"fmt"
	"path/filepath"

	"copernicus/internal/server"
	"copernicus/internal/store"
)

// replRole returns server i's configured replication role and the index of
// its counterpart; role is "" when i has none.
func (c *FabricConfig) replRole(i int) (role string, peer int) {
	for p, s := range c.Standbys {
		switch i {
		case p:
			return store.RolePrimary, s
		case s:
			return store.RoleStandby, p
		}
	}
	return "", 0
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

// hostConfig is server i's HostConfig, the same at first start and at every
// restart. A primary replicates out of its own serving directory (server-i);
// a standby mirrors into a separate replica-i directory, which after a
// promotion IS its serving directory. The WAL write hook stays off the
// standby's mirror: chaos WAL faults target the primary's disk, and faulting
// the copy too would double-count every fault.
func (f *Fabric) hostConfig(i int) HostConfig {
	cfg := HostConfig{
		Registry: f.cfg.Registry,
		Server:   server.Config{HeartbeatInterval: f.cfg.Heartbeat, FSToken: f.cfg.FSToken},
		Store: store.Options{
			FsyncInterval: f.cfg.FsyncInterval,
			SnapshotEvery: f.cfg.SnapshotEvery,
		},
	}
	if f.cfg.StateDir == "" {
		return cfg
	}
	role, peer := f.cfg.replRole(i)
	if role == store.RoleStandby {
		cfg.Store.Dir = filepath.Join(f.cfg.StateDir, fmt.Sprintf("replica-%d", i))
	} else {
		cfg.Store.Dir = filepath.Join(f.cfg.StateDir, fmt.Sprintf("server-%d", i))
		cfg.Store.WriteHook = f.cfg.StoreWriteHook
	}
	if role != "" {
		cfg.Replication = &ReplicationConfig{
			Role:         role,
			PeerID:       f.nodes[peer].ID(),
			PeerAddr:     serverAddr(peer),
			SelfAddr:     serverAddr(i),
			Interval:     f.cfg.ReplInterval,
			LeaseTimeout: f.cfg.LeaseTimeout,
		}
	}
	return cfg
}
