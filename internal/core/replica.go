package core

// Replica-side metadata readers for WAL replication (internal/repl).
//
// A warm follower holds a byte-for-byte replica of a primary's vault
// directory but has no master key, so it cannot open the vault to learn its
// Merkle position. It can, however, compute it: the metadata snapshot
// persists the commitment log's leaf hashes in the clear (they are hashes,
// not PHI), and every WAL 'V' entry carries the fields the leaf commits to
// — record ID, version number, ciphertext hash. ReplicaHeads re-derives the
// per-shard (size, root) pair from those files alone, mirroring the replay
// rules recovery applies: snapshot-covered WAL entries append no leaf, and
// meta.wal is read by wal.Read, the reader recovery's wal.OpenFS uses.
// Anti-entropy compares these against the primary's live tree to detect
// divergence without ever shipping a key.

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"

	"medvault/internal/audit"
	"medvault/internal/faultfs"
	"medvault/internal/merkle"
	"medvault/internal/obs"
	"medvault/internal/wal"
)

// ReplicaHead is one shard's Merkle position as computed from raw replica
// files, without keys.
type ReplicaHead struct {
	Size uint64
	Root merkle.Hash
}

// replicaShardDirs lists the shard directories of the vault layout under
// dir, in shard order, from files alone: the count comes from the cluster
// manifest, and a directory without one is the single-vault layout — dir
// itself — matching Open.
func replicaShardDirs(fsys faultfs.FS, dir string) ([]string, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, clusterManifest))
	if errors.Is(err, fs.ErrNotExist) {
		return []string{dir}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading replica manifest: %w", err)
	}
	n, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("core: replica manifest: %w", err)
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, "shard-"+strconv.Itoa(i))
	}
	return dirs, nil
}

// ReplicaHeads computes every shard's (size, root) directly from the
// metadata files under dir — the snapshot's persisted leaf hashes plus the
// leaves implied by WAL entries the snapshot does not cover.
func ReplicaHeads(fsys faultfs.FS, dir string) ([]ReplicaHead, error) {
	dirs, err := replicaShardDirs(fsys, dir)
	if err != nil {
		return nil, err
	}
	out := make([]ReplicaHead, len(dirs))
	for i, d := range dirs {
		if out[i], err = replicaShardHead(fsys, d); err != nil {
			return nil, fmt.Errorf("core: replica head of shard %d: %w", i, err)
		}
	}
	return out, nil
}

// ReadFlightTail decodes the persisted flight-recorder tail of the vault
// layout under dir — every shard's flight/ segments, in shard order — from
// a raw (crashed, replicated, or live) directory, without keys. It is the
// one reader of that layout: the offline `medvault flight` decoder and the
// torture and simulator crash invariants all call it. Torn segment tails
// decode to the frames that survived; a missing flight directory is empty.
func ReadFlightTail(fsys faultfs.FS, dir string) ([]obs.FlightEvent, error) {
	dirs, err := replicaShardDirs(fsys, dir)
	if err != nil {
		return nil, err
	}
	var out []obs.FlightEvent
	for _, d := range dirs {
		evs, err := obs.ReadFlightDir(fsys, filepath.Join(d, "flight"))
		if err != nil {
			return nil, fmt.Errorf("core: flight tail in %s: %w", d, err)
		}
		out = append(out, evs...)
	}
	return out, nil
}

// replicaShardHead derives one shard directory's Merkle position.
func replicaShardHead(fsys faultfs.FS, dir string) (ReplicaHead, error) {
	var leaves []merkle.Hash
	counts := make(map[string]uint64) // id -> highest version with a leaf
	data, err := fsys.ReadFile(filepath.Join(dir, "meta.snap"))
	switch {
	case err == nil:
		snap, err := decodeSnapshot(data)
		if err != nil {
			return ReplicaHead{}, err
		}
		leaves = snap.leaves
		for _, rec := range snap.records {
			counts[rec.id] = uint64(len(rec.versions))
		}
	case errors.Is(err, fs.ErrNotExist):
		// fresh shard
	default:
		return ReplicaHead{}, fmt.Errorf("reading snapshot: %w", err)
	}
	// wal.Read is OpenFS's reader without the truncation: a torn tail is
	// ignored, exactly as recovery cuts it, and a sequence gap is an error.
	_, _, err = wal.Read(fsys, filepath.Join(dir, "meta.wal"), func(we wal.Entry) error {
		e, err := decodeWALEntry(we.Data)
		if err != nil {
			return err
		}
		if e.kind != 'V' || e.ver.Number <= counts[e.id] {
			// Shred/hold entries append no leaf; neither does a version the
			// snapshot already restored (WAL-replay idempotence).
			return nil
		}
		counts[e.id] = e.ver.Number
		leaves = append(leaves, merkle.LeafHash(leafData(e.id, e.ver.Number, e.ver.CtHash)))
		return nil
	})
	if err != nil {
		return ReplicaHead{}, err
	}
	t := merkle.TreeFromLeafHashes(leaves)
	return ReplicaHead{Size: t.Size(), Root: t.Root()}, nil
}

// MerkleRootAt returns the shard's commitment-log root at a historical size
// — the primary-side half of anti-entropy: a follower reporting (size, root)
// is consistent iff this root matches, i.e. the follower's log is a prefix.
func (v *Vault) MerkleRootAt(size uint64) (merkle.Hash, error) {
	return v.log.Tree().RootAt(size)
}

// MerkleRootAt returns shard's root at a historical size (see Vault).
func (c *Cluster) MerkleRootAt(shard int, size uint64) (merkle.Hash, error) {
	if shard < 0 || shard >= len(c.shards) {
		return merkle.Hash{}, fmt.Errorf("core: no shard %d", shard)
	}
	return c.shards[shard].MerkleRootAt(size)
}

// AuditReplicationFence records a fenced-off replication write in the audit
// chain: a demoted primary with a stale epoch tried to commit and was
// rejected. The event is appended as the replication subsystem itself — the
// rejection is a policy outcome, not a principal's action, and the detail
// carries the epochs so the split-brain window is reconstructible from the
// journal alone.
func (v *Vault) AuditReplicationFence(detail string) error {
	_, err := v.aud.Append(audit.Event{
		Actor:   "replication",
		Action:  audit.ActionPolicy,
		Outcome: audit.OutcomeDenied,
		Detail:  detail,
	})
	return err
}

// AuditReplicationFence records the fence rejection on shard 0 — the
// cluster's canonical chain for store-level events.
func (c *Cluster) AuditReplicationFence(detail string) error {
	return c.shards[0].AuditReplicationFence(detail)
}
