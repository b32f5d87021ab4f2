package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"copernicus/internal/store/atomicfile"
)

// This file is the store's replication surface: what a primary needs to ship
// its WAL to a standby (ReadSince, NewestSnapshot, LastSeq) and what a
// standby needs to hold a warm, replayable copy (AppendReplicatedBatch,
// InstallSnapshot). Everything a standby writes lands in the same on-disk
// format as a primary's own WAL, so promotion is nothing more than a normal
// Open + recovery over the replica directory — the torn-tail-tolerant path
// is reused verbatim.

// ErrReplicaGap reports that a replicated append does not continue the
// replica's WAL contiguously: the shipper skipped records the replica never
// saw. The applier refuses the batch and asks the primary to resync from its
// last applied sequence (possibly via a snapshot baseline, if the missing
// records were compacted away on the primary).
var ErrReplicaGap = errors.New("store: replicated records leave a sequence gap")

// LastSeq returns the highest sequence number assigned so far (0 when the
// log is empty). On a primary this is the shipping frontier; on a standby it
// is the applied frontier.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1
}

// ReadSince reads up to max records with Seq > after from the on-disk WAL,
// in ascending sequence order. gap reports that the records immediately
// following `after` are no longer on disk (compacted below the snapshot
// baseline); the caller must ship a snapshot baseline first. Reading races
// concurrent appends safely: a partially-flushed final frame fails its CRC
// and simply bounds this read — the records reappear on the next call.
func (s *Store) ReadSince(after uint64, max int) (recs []Record, gap bool, err error) {
	if max <= 0 {
		max = 1 << 20
	}
	s.mu.Lock()
	firstBySeg := make(map[uint64]uint64, len(s.segFirst))
	for idx, first := range s.segFirst {
		firstBySeg[idx] = first
	}
	s.mu.Unlock()

	segs, _, err := scanDir(s.opts.Dir)
	if err != nil {
		return nil, false, err
	}
	for _, f := range segs {
		// Skip whole segments that end before the cursor: segment f holds
		// seqs [firstBySeg[f.index], firstBySeg[next]-1] for segments created
		// by this process, so a successor starting at or below after+1 proves
		// f has nothing to contribute.
		if next, ok := firstBySeg[f.index+1]; ok && next <= after+1 {
			continue
		}
		fileRecs, _, err := readSegmentFile(f.path)
		if err != nil {
			if os.IsNotExist(err) {
				// A concurrent compaction removed the segment between scan
				// and read; everything it held is below the new baseline.
				continue
			}
			return nil, false, err
		}
		for _, r := range fileRecs {
			if r.Seq <= after {
				continue
			}
			recs = append(recs, r)
			if len(recs) >= max {
				break
			}
		}
		if len(recs) >= max {
			break
		}
	}
	if len(recs) > 0 && recs[0].Seq != after+1 {
		return nil, true, nil
	}
	if len(recs) == 0 {
		// Nothing newer on disk — either the caller is caught up, or the
		// records above `after` were compacted into a snapshot.
		if s.LastSeq() > after {
			return nil, true, nil
		}
	}
	return recs, false, nil
}

// NewestSnapshot returns the raw bytes of the newest decodable snapshot
// file together with the sequence it is guaranteed to reflect, or nil when
// no usable snapshot exists. The bytes are a verbatim file image (magic,
// CRC and all), suitable for shipping to a standby's InstallSnapshot.
func (s *Store) NewestSnapshot() (lastSeq uint64, blob []byte, err error) {
	_, snaps, err := scanDir(s.opts.Dir)
	if err != nil {
		return 0, nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(snaps[i].path)
		if err != nil {
			continue
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			continue
		}
		return snap.LastSeq, data, nil
	}
	return 0, nil, nil
}

// AppendReplicatedBatch appends records shipped from a primary, preserving
// their sequence numbers and timestamps. Records at or below the replica's
// applied frontier are skipped (redelivery is idempotent); a record beyond
// frontier+1 stops the batch with ErrReplicaGap. Whatever was written, the
// whole batch or the part before a gap or write fault, is committed before
// the call returns how many records were newly applied.
func (s *Store) AppendReplicatedBatch(recs []Record) (applied int, err error) {
	s.mu.Lock()
	err = s.readyLocked()
	for i := 0; err == nil && i < len(recs); i++ {
		switch rec := recs[i]; {
		case rec.Seq < s.nextSeq:
			// already applied; duplicate shipment
		case rec.Seq > s.nextSeq:
			err = fmt.Errorf("%w: have %d, shipped %d", ErrReplicaGap, s.nextSeq-1, rec.Seq)
		default:
			if err = s.writeLocked(&rec); err == nil {
				applied++
			}
		}
	}
	tail := s.nextSeq - 1
	s.mu.Unlock()
	if applied == 0 {
		return 0, err
	}
	if cerr := s.Commit(tail); cerr != nil && err == nil {
		err = fmt.Errorf("store: replicated batch: %w", cerr)
	}
	return applied, err
}

// InstallSnapshot installs a snapshot file image shipped from a primary as
// this replica's new recovery baseline, then compacts the replicated WAL
// below it. The baseline index is chosen so that no record above the
// snapshot's LastSeq ever falls below it:
//
//   - If the replica is at or behind the snapshot, the active segment is
//     rotated first and the baseline is the fresh segment — every future
//     record has Seq > LastSeq by construction — and the applied frontier
//     fast-forwards to LastSeq.
//   - If the replica is ahead, the baseline is the segment holding record
//     LastSeq+1. When that segment predates this process (its first
//     sequence is unknown), the install is deferred (installed=false) —
//     a later snapshot will land in a known segment.
//
// installed=false with a nil error means the snapshot was skipped safely.
func (s *Store) InstallSnapshot(blob []byte) (installed bool, err error) {
	snap, err := decodeSnapshot(blob)
	if err != nil {
		return false, fmt.Errorf("store: refusing shipped snapshot: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, errors.New("store: closed")
	}
	var idx uint64
	if s.nextSeq-1 <= snap.LastSeq {
		// At or behind the baseline: everything we have is covered by it.
		if err := s.rotateLocked(); err != nil {
			s.mu.Unlock()
			return false, err
		}
		s.nextSeq = snap.LastSeq + 1
		s.durable = snap.LastSeq // the snapshot itself covers the skipped range
		idx = s.segIndex
		s.segFirst[idx] = s.nextSeq
	} else {
		// Ahead of the baseline: find the segment holding LastSeq+1.
		found := false
		for segIdx, first := range s.segFirst {
			if first <= snap.LastSeq+1 && (!found || segIdx > idx) {
				idx, found = segIdx, true
			}
		}
		if !found {
			s.mu.Unlock()
			return false, nil
		}
	}
	s.mu.Unlock()
	if err := atomicfile.WriteFile(snapshotPath(s.opts.Dir, idx), blob, 0o644); err != nil {
		return false, err
	}
	s.met.snapshots.Inc()
	s.compact(idx)
	return true, nil
}

// ReadAll loads a state directory's recovery image without opening a Store:
// offline inspection, replica auditing, tests. The directory is not
// modified.
func ReadAll(dir string) (*Recovered, error) {
	rec, _, err := loadDir(dir)
	return rec, err
}

// --- replica metadata ---

// Replication role names persisted in ReplicaMeta.
const (
	RolePrimary = "primary"
	RoleStandby = "standby"
)

// ReplicaMeta is the small durable record of a node's place in a
// replication pair: its fencing epoch, its current role, and its peer. It
// lives beside the WAL so a restarted process resumes the same role — in
// particular, a restarted ex-primary re-ships to its old standby, discovers
// it was fenced, and demotes instead of split-braining.
type ReplicaMeta struct {
	Epoch    uint64 `json:"epoch"`
	Role     string `json:"role"`
	PeerID   string `json:"peer_id,omitempty"`
	PeerAddr string `json:"peer_addr,omitempty"`
}

const replicaMetaFile = "replica-meta.json"

// LoadReplicaMeta reads the replica metadata from dir; (nil, nil) when the
// directory has none (an unreplicated store).
func LoadReplicaMeta(dir string) (*ReplicaMeta, error) {
	data, err := os.ReadFile(replicaMetaPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m ReplicaMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: corrupt %s: %w", replicaMetaFile, err)
	}
	return &m, nil
}

// SaveReplicaMeta durably writes the replica metadata into dir.
func SaveReplicaMeta(dir string, m *ReplicaMeta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(replicaMetaPath(dir), data, 0o644)
}

func replicaMetaPath(dir string) string {
	return filepath.Join(dir, replicaMetaFile)
}
