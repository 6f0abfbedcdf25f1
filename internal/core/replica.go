package core

// Keyless readers of a vault directory's layout, and the audit hook for
// WAL replication (internal/repl). A warm follower holds a byte-for-byte
// replica of a primary's vault directory but has no master key; the offline
// flight decoder and the crash harnesses read the same raw directories.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"

	"medvault/internal/audit"
	"medvault/internal/faultfs"
	"medvault/internal/obs"
)

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

// FlightSegmentCount counts the flight segments ReadFlightTail decodes:
// every shard's under dir.
func FlightSegmentCount(fsys faultfs.FS, dir string) (int, error) {
	dirs, err := replicaShardDirs(fsys, dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range dirs {
		nums, err := obs.FlightSegments(fsys, filepath.Join(d, "flight"))
		if err != nil {
			return 0, fmt.Errorf("core: flight segments in %s: %w", d, err)
		}
		n += len(nums)
	}
	return n, nil
}

// AuditReplicationFence records a fenced-off replication write in the audit
// chain: a demoted primary with a stale epoch tried to commit and was
// rejected. The event is appended as the replication subsystem itself — the
// rejection is a policy outcome, not a principal's action, and the detail
// carries the epochs so the split-brain window is reconstructible from the
// journal alone.
func (v *Vault) AuditReplicationFence(detail string) error {
	return v.appendAudit(context.TODO(), audit.Event{
		Actor:   "replication",
		Action:  audit.ActionPolicy,
		Outcome: audit.OutcomeDenied,
		Detail:  detail,
	})
}

// AuditReplicationFence records the fence rejection on shard 0 — the
// cluster's canonical chain for store-level events.
func (c *Cluster) AuditReplicationFence(detail string) error {
	return c.shards[0].AuditReplicationFence(detail)
}
