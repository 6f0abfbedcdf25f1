// Cluster is the vault.
//
// A Cluster hash-partitions record IDs across N independent shards. Each
// shard (a *Vault) is a complete trust boundary — its own WAL, blockstore,
// keystore, Merkle commitment log, audit chain, read caches, and lock
// stripes — so the split never separates security state from the data it
// protects, and a compromised (or wedged) shard's blast radius stays inside
// the shard. The shards share one clock, one authorizer, and one retention
// manager: authorization decisions are shard-local and fully audited on the
// shard that executes the operation, but the policy state they evaluate is
// vault-wide.
//
// Routing: single-record operations go to ShardOf(id). Whole-vault
// operations (VerifyAll, Search, Close, Health, retention sweeps, disclosure
// accounting) visit every shard through gather, one at a time in shard
// order, and merge deterministically — per-shard results are combined in
// shard-index order, and order-bearing merges (audit events, disclosures)
// are then stably sorted by timestamp, so ties keep shard order.
//
// One shard is the smallest cluster, not a second implementation: it takes
// the same routing and gather paths. The helpers below keep it
// indistinguishable from the pre-cluster vault — no manifest is written, the
// directory is the classic single-vault layout, no shard index is stamped
// on errors, metrics, or spans, and a merge of one part is that part — so
// behavior (error text, audit journal, on-disk fs op sequence) is what it
// was before sharding existed, which the golden tests in cluster_test.go
// and torture_test.go pin.
package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/merkle"
	"medvault/internal/provenance"
	"medvault/internal/retention"
	"medvault/internal/vcrypto"
)

// MaxShards bounds a cluster. The cap is arbitrary but keeps a typo'd
// -shards from fanning out ten thousand WALs.
const MaxShards = 256

// clusterManifest is the file recording a durable cluster's shard count.
// The shard count is part of the data layout — reopening with a different
// count would silently route records to shards that never stored them — so
// it is pinned at creation and checked on every open.
const clusterManifest = "cluster.conf"

// ShardOf maps a record ID onto one of n shards. The mapping is part of the
// durable format: records are stored on the shard this function names, so
// changing the hash is a format break (see the golden test in
// cluster_test.go). FNV-1a/64 is used for the same reason the lock stripes
// use FNV-1a/32 — tiny, allocation-free, and well distributed on short IDs.
func ShardOf(id string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum64() % uint64(n))
}

// API is the vault operation surface *Cluster implements. Everything above
// core — httpapi, backup, migrate — programs against this seam, so tests can
// interpose a fake (a wedged or panicking vault) without a disk.
type API interface {
	// Identity and lifecycle.
	Name() string
	PublicKey() vcrypto.PublicKey
	Sign(purpose string, data []byte) []byte
	Health() HealthStatus
	Close() error
	Len() int
	StorageBytes() int64
	Heads() []merkle.SignedTreeHead
	Authz() *authz.Authorizer
	Retention() *retention.Manager

	// Record operations (routed to one shard).
	PutCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error)
	GetCtx(ctx context.Context, actor, id string) (ehr.Record, Version, error)
	GetVersionCtx(ctx context.Context, actor, id string, number uint64) (ehr.Record, Version, error)
	HistoryCtx(ctx context.Context, actor, id string) ([]Version, error)
	CorrectCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error)
	ShredCtx(ctx context.Context, actor, id string) error
	PlaceHoldCtx(ctx context.Context, actor, id, reason string) error
	ReleaseHoldCtx(ctx context.Context, actor, id string) error
	ProvenanceCtx(ctx context.Context, actor, id string) ([]provenance.Event, error)
	ProveVersionSinceCtx(ctx context.Context, actor, id string, number, since uint64) (VersionProof, error)
	VersionCount(id string) (int, error)
	Export(actor, id string) (ExportBundle, error)
	Import(actor string, bundle ExportBundle, sourceSystem string) error
	ImportRestored(actor string, bundle ExportBundle, sourceSystem string) error
	RecordBackedUp(actor, id, destination string) error
	RecordMigratedOut(actor, id, targetSystem string) error

	// Whole-vault operations (every shard visited, results merged).
	SearchCtx(ctx context.Context, actor, keyword string) ([]string, error)
	SearchAllCtx(ctx context.Context, actor string, keywords ...string) ([]string, error)
	BreakGlassCtx(ctx context.Context, actor, reason string, duration time.Duration) error
	AuditEventsCtx(ctx context.Context, actor string, q audit.Query) ([]audit.Event, error)
	AccountingOfDisclosuresCtx(ctx context.Context, actor, mrn string) ([]Disclosure, error)
	PatientRecordsCtx(ctx context.Context, actor, mrn string) ([]string, error)
	VerifyCtx(ctx context.Context, actor string) (Report, error)
	SanitizeMedia(actor string) (int, int64, error)
	RecordIDs() []string
	ExpiredRecords() []string
}

var _ API = (*Cluster)(nil)

// Cluster is the hybrid compliance store: records hash-partitioned over
// independent shards. See the file comment above for routing and merge rules.
type Cluster struct {
	shards []*Vault
	auth   *authz.Authorizer
	ret    *retention.Manager
	name   string
}

// Open creates or reopens the vault described by cfg.
//
// Layout: with one shard, cfg.Dir is used directly (the classic single-vault
// layout). With more, each shard lives under cfg.Dir/shard-<i> and
// cfg.Dir/cluster.conf pins the shard count; reopening with a different
// count is an error, and cfg.Shards == 0 adopts the manifest's count (1 when
// there is none). An empty cfg.Dir is a fresh in-memory disk, laid out the
// same way.
//
// All shards share the master key, system name, clock, authorizer, and
// retention manager, so the vault presents one signing identity and one
// policy surface while every shard keeps its own full storage stack.
func Open(cfg Config) (*Cluster, error) {
	shards := cfg.Shards
	if shards < 0 {
		return nil, fmt.Errorf("core: shard count %d is negative", shards)
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("core: shard count %d exceeds the maximum of %d", shards, MaxShards)
	}
	if cfg.Name == "" {
		cfg.Name = "medvault"
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	switch {
	case cfg.Dir == "":
		cfg.Dir, cfg.FS = "vault", faultfs.NewMem()
	case cfg.FS == nil:
		cfg.FS = faultfs.OS{}
	}
	shards, err := reconcileManifest(cfg.FS, cfg.Dir, shards)
	if err != nil {
		return nil, err
	}

	// One authorizer and one retention manager for the whole vault: grants,
	// roles, holds, and schedules are policy, not data, and must not diverge
	// between shards.
	clk := cfg.Clock
	c := &Cluster{
		name: cfg.Name,
		auth: authz.New(func() time.Time { return clk.Now() }),
		ret:  retention.NewManager(clk),
	}
	for _, p := range retention.StandardPolicies() {
		c.ret.SetPolicy(p)
	}
	for i := 0; i < shards; i++ {
		dir, tag := cfg.Dir, ""
		if shards > 1 {
			tag = strconv.Itoa(i)
			dir = filepath.Join(cfg.Dir, "shard-"+tag)
		}
		v, err := openShard(cfg, dir, tag, c.auth, c.ret)
		if err != nil {
			for _, prev := range c.shards {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("core: opening shard %d of %d: %w", i, shards, err)
		}
		c.shards = append(c.shards, v)
	}
	return c, nil
}

// reconcileManifest reads, checks, or creates the shard-count manifest and
// returns the effective shard count. requested == 0 adopts the existing
// layout (manifest count, or 1 when the directory has no manifest).
func reconcileManifest(fsys faultfs.FS, dir string, requested int) (int, error) {
	path := filepath.Join(dir, clusterManifest)
	data, err := fsys.ReadFile(path)
	switch {
	case err == nil:
		n, perr := parseManifest(data)
		if perr != nil {
			return 0, fmt.Errorf("core: %s: %w", path, perr)
		}
		if requested != 0 && requested != n {
			return 0, fmt.Errorf("core: %s pins %d shards but %d were requested; the shard count is part of the data layout and cannot change on reopen", path, n, requested)
		}
		return n, nil
	case errors.Is(err, fs.ErrNotExist):
		if requested == 0 {
			requested = 1
		}
		if requested == 1 {
			// Single-shard layouts stay manifest-free: a one-shard cluster
			// must be bit-compatible with a pre-cluster vault directory,
			// in both directions.
			return 1, nil
		}
		// Refuse to shard over an existing single-vault directory: the old
		// records would sit invisible next to empty shards.
		if _, serr := fsys.Stat(filepath.Join(dir, "meta.wal")); serr == nil {
			return 0, fmt.Errorf("core: %s holds a single-vault layout; it cannot be reopened with %d shards", dir, requested)
		}
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return 0, fmt.Errorf("core: creating cluster directory: %w", err)
		}
		// Crash-atomic: a power cut (or ENOSPC) at any point during creation
		// must leave either no manifest at all (the next open recreates it)
		// or the complete synced one, never a present-but-empty file that
		// poisons every later open.
		if err := faultfs.WriteFileAtomic(fsys, path, []byte(fmt.Sprintf("shards %d\n", requested)), 0o644); err != nil {
			return 0, fmt.Errorf("core: writing %s: %w", path, err)
		}
		return requested, nil
	default:
		return 0, fmt.Errorf("core: reading %s: %w", path, err)
	}
}

// parseManifest decodes a "shards N" manifest.
func parseManifest(data []byte) (int, error) {
	fields := strings.Fields(string(data))
	if len(fields) != 2 || fields[0] != "shards" {
		return 0, fmt.Errorf("malformed cluster manifest (want \"shards N\")")
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 1 || n > MaxShards {
		return 0, fmt.Errorf("malformed cluster manifest shard count %q", fields[1])
	}
	return n, nil
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i — the per-shard handle the simulator and tests use
// to address one shard's audit chain, tree head, and checkpoints directly.
func (c *Cluster) Shard(i int) *Vault { return c.shards[i] }

// shardFor routes a record ID.
func (c *Cluster) shardFor(id string) *Vault {
	return c.shards[ShardOf(id, len(c.shards))]
}

// gather runs fn once per shard, one at a time in shard order, and returns
// the errors indexed by shard; fn stores its result in a slot it owns
// (parts[i]). Every shard runs to completion — a wedged shard never stops or
// masks a healthy sibling. The order is fixed so that a whole-vault
// operation's fs ops and per-shard audit events land the same way on every
// run: a crash injected at one fs op index strikes the same op each time.
func (c *Cluster) gather(fn func(i int, v *Vault) error) []error {
	errs := make([]error, len(c.shards))
	for i, v := range c.shards {
		errs[i] = fn(i, v)
	}
	return errs
}

// joinShardErrs reports every failing shard in shard order, each tagged
// with its index. One shard has no index worth naming: its error passes
// through untouched.
func joinShardErrs(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(failed...)
}

// firstErr returns the lowest-indexed shard's error, untagged. It serves
// the operations whose outcome the shared authorizer decides — every shard
// reaches the same verdict, so one shard's error is the answer, phrased
// exactly as a one-shard vault phrases it.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// flatten concatenates per-shard results in shard order. One shard's result
// is returned as is.
func flatten[T any](parts [][]T) []T {
	if len(parts) == 1 {
		return parts[0]
	}
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// unionIDs merges per-shard ID lists into one sorted list. Shards hold
// disjoint records and every list arrives sorted, so the merge is a plain
// union and one shard's list is already the answer.
func unionIDs(parts [][]string) []string {
	out := flatten(parts)
	if len(parts) > 1 {
		sort.Strings(out)
	}
	return out
}

// --- identity and lifecycle ---

// Name returns the vault's system name (shared by every shard).
func (c *Cluster) Name() string { return c.name }

// PublicKey returns the vault's signing identity. Every shard derives its
// signer from the same master, so the vault speaks with one key.
func (c *Cluster) PublicKey() vcrypto.PublicKey { return c.shards[0].signer.Public() }

// Authz returns the vault's authorizer for role and principal management.
func (c *Cluster) Authz() *authz.Authorizer { return c.auth }

// Retention returns the retention manager (legal holds, schedules).
func (c *Cluster) Retention() *retention.Manager { return c.ret }

// Len returns the number of live (non-shredded) records.
func (c *Cluster) Len() int {
	n := 0
	for _, v := range c.shards {
		n += v.Len()
	}
	return n
}

// StorageBytes sums the shards' StorageBytes: ciphertext, wherever it
// lives, plus the index's stored form — the cost-experiment accounting.
func (c *Cluster) StorageBytes() int64 {
	var n int64
	for _, v := range c.shards {
		n += v.StorageBytes()
	}
	return n
}

// Heads returns every shard's signed tree head, in shard order. Remember
// them off-system and hand each back to its shard's VerifyAll to detect
// history rewriting.
func (c *Cluster) Heads() []merkle.SignedTreeHead {
	out := make([]merkle.SignedTreeHead, len(c.shards))
	for i, v := range c.shards {
		out[i] = v.Head()
	}
	return out
}

// Health reports the vault's current liveness for /healthz. With several
// shards it merges their reports — Open only if every shard is, wedged if
// any shard is (the first wedged shard named), counts summed — and attaches
// the per-shard reports. InFlightOps is the process-wide
// gauge, not a sum: shards share it.
func (c *Cluster) Health() HealthStatus {
	if len(c.shards) == 1 {
		return c.shards[0].Health()
	}
	merged := HealthStatus{Open: true}
	for i, v := range c.shards {
		h := v.Health()
		merged.Shards = append(merged.Shards, h)
		merged.Open = merged.Open && h.Open
		if h.WALWedged && !merged.WALWedged {
			merged.WALWedged = true
			merged.WALWedgeError = fmt.Sprintf("shard %d: %s", i, h.WALWedgeError)
		}
		merged.AuditWedged = merged.AuditWedged || h.AuditWedged
		merged.WALQueueDepth += h.WALQueueDepth
		merged.LiveRecords += h.LiveRecords
		merged.LastRecovery.SnapshotLoaded = merged.LastRecovery.SnapshotLoaded || h.LastRecovery.SnapshotLoaded
		merged.LastRecovery.WALEntries += h.LastRecovery.WALEntries
		merged.LastRecovery.RecordsLive += h.LastRecovery.RecordsLive
	}
	merged.InFlightOps = merged.Shards[0].InFlightOps
	return merged
}

// Close flushes state and releases resources, shard by shard; a failing
// shard never prevents its siblings from closing. See Vault.Close
// for the drain-then-release contract each shard honors.
func (c *Cluster) Close() error {
	return joinShardErrs(c.gather(func(_ int, v *Vault) error { return v.Close() }))
}

// --- single-record operations, routed to the record's shard ---

// PutCtx routes to the record's shard. See Vault.PutCtx.
func (c *Cluster) PutCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error) {
	return c.shardFor(rec.ID).PutCtx(ctx, actor, rec)
}

// GetCtx routes to the record's shard. See Vault.GetCtx.
func (c *Cluster) GetCtx(ctx context.Context, actor, id string) (ehr.Record, Version, error) {
	return c.shardFor(id).GetCtx(ctx, actor, id)
}

// GetVersionCtx routes to the record's shard. See Vault.GetVersionCtx.
func (c *Cluster) GetVersionCtx(ctx context.Context, actor, id string, number uint64) (ehr.Record, Version, error) {
	return c.shardFor(id).GetVersionCtx(ctx, actor, id, number)
}

// HistoryCtx routes to the record's shard. See Vault.HistoryCtx.
func (c *Cluster) HistoryCtx(ctx context.Context, actor, id string) ([]Version, error) {
	return c.shardFor(id).HistoryCtx(ctx, actor, id)
}

// CorrectCtx routes to the record's shard. See Vault.CorrectCtx.
func (c *Cluster) CorrectCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error) {
	return c.shardFor(rec.ID).CorrectCtx(ctx, actor, rec)
}

// ShredCtx routes to the record's shard. See Vault.ShredCtx.
func (c *Cluster) ShredCtx(ctx context.Context, actor, id string) error {
	return c.shardFor(id).ShredCtx(ctx, actor, id)
}

// PlaceHoldCtx routes to the record's shard. See Vault.PlaceHoldCtx.
func (c *Cluster) PlaceHoldCtx(ctx context.Context, actor, id, reason string) error {
	return c.shardFor(id).PlaceHoldCtx(ctx, actor, id, reason)
}

// ReleaseHoldCtx routes to the record's shard. See Vault.ReleaseHoldCtx.
func (c *Cluster) ReleaseHoldCtx(ctx context.Context, actor, id string) error {
	return c.shardFor(id).ReleaseHoldCtx(ctx, actor, id)
}

// ProvenanceCtx routes to the record's shard. See Vault.ProvenanceCtx.
func (c *Cluster) ProvenanceCtx(ctx context.Context, actor, id string) ([]provenance.Event, error) {
	return c.shardFor(id).ProvenanceCtx(ctx, actor, id)
}

// ProveVersionCtx is ProveVersionSinceCtx with no remembered head: the
// inclusion proof alone.
func (c *Cluster) ProveVersionCtx(ctx context.Context, actor, id string, number uint64) (VersionProof, error) {
	return c.ProveVersionSinceCtx(ctx, actor, id, number, 0)
}

// ProveVersionSinceCtx routes to the record's shard; the proof anchors to
// that shard's tree head, and since is a size of that shard's log. See
// Vault.proveVersion.
func (c *Cluster) ProveVersionSinceCtx(ctx context.Context, actor, id string, number, since uint64) (VersionProof, error) {
	return c.shardFor(id).proveVersion(ctx, actor, id, number, since)
}

// VersionCount routes to the record's shard. See Vault.VersionCount.
func (c *Cluster) VersionCount(id string) (int, error) { return c.shardFor(id).VersionCount(id) }

// Ciphertext returns the bytes the medium holds for version number of a live
// record: unaudited, uncached and read-only, for a harness that scans a
// medium for ciphertext that must no longer be on it.
func (c *Cluster) Ciphertext(id string, number uint64) ([]byte, error) {
	v := c.shardFor(id)
	mu := v.stripes.forRecord(id)
	mu.RLock()
	defer mu.RUnlock()
	st, err := v.stateFor(id)
	if err != nil {
		return nil, err
	}
	if number == 0 || number > st.count() {
		return nil, fmt.Errorf("%w: %s v%d", ErrNotFound, id, number)
	}
	ct, _, err := v.ciphertext(st.at(number).ref())
	return ct, err
}

// Export routes to the record's shard. See Vault.Export.
func (c *Cluster) Export(actor, id string) (ExportBundle, error) {
	return c.shardFor(id).Export(actor, id)
}

// Import routes to the record's shard. See Vault.Import.
func (c *Cluster) Import(actor string, bundle ExportBundle, sourceSystem string) error {
	return c.shardFor(bundle.ID).Import(actor, bundle, sourceSystem)
}

// ImportRestored routes to the record's shard. See Vault.ImportRestored.
func (c *Cluster) ImportRestored(actor string, bundle ExportBundle, sourceSystem string) error {
	return c.shardFor(bundle.ID).ImportRestored(actor, bundle, sourceSystem)
}

// RecordBackedUp routes to the record's shard. See Vault.RecordBackedUp.
func (c *Cluster) RecordBackedUp(actor, id, destination string) error {
	return c.shardFor(id).RecordBackedUp(actor, id, destination)
}

// RecordMigratedOut routes to the record's shard. See Vault.RecordMigratedOut.
func (c *Cluster) RecordMigratedOut(actor, id, targetSystem string) error {
	return c.shardFor(id).RecordMigratedOut(actor, id, targetSystem)
}

// --- whole-vault operations: every shard visited, results merged ---

// searchShards runs one ID-listing query per shard and merges the hits.
// Each shard audits the decision on its own chain — the shard that holds a
// hit must also hold the audit trail of the query that found it — and on a
// shared-authorizer denial every shard still audits its own denial before
// the error is returned.
func (c *Cluster) searchShards(list func(*Vault) ([]string, error)) ([]string, error) {
	parts := make([][]string, len(c.shards))
	errs := c.gather(func(i int, v *Vault) (err error) {
		parts[i], err = list(v)
		return err
	})
	if err := joinShardErrs(errs); err != nil {
		return nil, err
	}
	return unionIDs(parts), nil
}

// SearchCtx returns the sorted IDs of records matching keyword that the
// actor is allowed to read. See Vault.SearchCtx and searchShards.
func (c *Cluster) SearchCtx(ctx context.Context, actor, keyword string) ([]string, error) {
	return c.searchShards(func(v *Vault) ([]string, error) { return v.SearchCtx(ctx, actor, keyword) })
}

// SearchAllCtx is the conjunctive form of SearchCtx: records containing
// every keyword.
func (c *Cluster) SearchAllCtx(ctx context.Context, actor string, keywords ...string) ([]string, error) {
	return c.searchShards(func(v *Vault) ([]string, error) { return v.SearchAllCtx(ctx, actor, keywords...) })
}

// PatientRecordsCtx returns the sorted IDs of the patient's records the
// actor may read (never audited; the only error is ErrClosed).
func (c *Cluster) PatientRecordsCtx(ctx context.Context, actor, mrn string) ([]string, error) {
	return c.searchShards(func(v *Vault) ([]string, error) { return v.PatientRecordsCtx(ctx, actor, mrn) })
}

// BreakGlassCtx grants the actor time-boxed emergency access and audits the
// grant on every shard, in shard order: the grant elevates access vault-wide
// (the authorizer is shared), so every shard's chain must show it.
// Re-issuing on each shard is an idempotent overwrite of the same grant.
func (c *Cluster) BreakGlassCtx(ctx context.Context, actor, reason string, duration time.Duration) (err error) {
	ctx, done := c.begin(ctx, "break_glass")
	defer done(&err)
	return firstErr(c.gather(func(_ int, v *Vault) error {
		return v.admitted(func() error { return v.breakGlass(ctx, actor, reason, duration) })
	}))
}

// AuditEventsCtx returns audit events matching q; the query itself requires
// (and is recorded with) audit permission on every shard's chain. Shard
// results are concatenated in shard order and stably sorted by timestamp, so
// same-instant events keep shard order. Seq numbers remain shard-local.
func (c *Cluster) AuditEventsCtx(ctx context.Context, actor string, q audit.Query) ([]audit.Event, error) {
	parts := make([][]audit.Event, len(c.shards))
	errs := c.gather(func(i int, v *Vault) (err error) {
		parts[i], err = v.AuditEventsCtx(ctx, actor, q)
		return err
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	merged := flatten(parts)
	if len(parts) > 1 {
		// One chain is already in its own (Seq) order, which a timestamp sort
		// must not second-guess if the wall clock ever stepped backwards.
		sort.SliceStable(merged, func(i, j int) bool {
			return merged[i].Timestamp.Before(merged[j].Timestamp)
		})
	}
	return merged, nil
}

// VerifyAll runs the full integrity sweep (see Vault.VerifyAll) on every
// shard in shard order and sums the reports. A wedged or tampered shard fails
// the sweep with its shard index named, without masking its siblings —
// every shard is swept and every failure is reported, in shard order.
//
// Remembered heads and checkpoints are shard-local artifacts: with more
// than one shard, hand each back to its own shard via Shard(i).VerifyAll;
// passing them here is rejected rather than misverified.
func (c *Cluster) VerifyAll(rememberedHeads []merkle.SignedTreeHead, rememberedCheckpoints []audit.Checkpoint) (Report, error) {
	if len(c.shards) > 1 && (len(rememberedHeads) > 0 || len(rememberedCheckpoints) > 0) {
		return Report{}, fmt.Errorf("core: remembered heads and checkpoints are per-shard; verify them via Shard(i).VerifyAll")
	}
	reports := make([]Report, len(c.shards))
	errs := c.gather(func(i int, v *Vault) (err error) {
		reports[i], err = v.VerifyAll(rememberedHeads, rememberedCheckpoints)
		return err
	})
	var total Report
	for _, rep := range reports {
		total.RecordsChecked += rep.RecordsChecked
		total.VersionsChecked += rep.VersionsChecked
		total.AuditEvents += rep.AuditEvents
		total.ProvenanceChains += rep.ProvenanceChains
		total.HeadsChecked += rep.HeadsChecked
		total.CheckpointsProven += rep.CheckpointsProven
	}
	return total, joinShardErrs(errs)
}

// VerifyCtx is VerifyAll on a requester's behalf: actor must hold audit
// permission, which every shard checks and audits, in shard order, before
// any shard's exclusive sweep starts — so a caller who may not verify never
// drains the vault. A refused request runs no sweep, so each shard's
// verify_all completes with the refusal here.
func (c *Cluster) VerifyCtx(ctx context.Context, actor string) (Report, error) {
	if err := firstErr(c.gather(func(_ int, v *Vault) error {
		return v.admitted(func() error {
			return v.authorize(ctx, actor, authz.ActAudit, audit.ActionVerify, "", 0, "")
		})
	})); err != nil {
		for _, v := range c.shards {
			_, done, _ := v.begin(ctx, "verify_all", "")
			done(&err)
		}
		return Report{}, err
	}
	return c.VerifyAll(nil, nil)
}

// SanitizeMedia sweeps every shard in shard order (see Vault.SanitizeMedia)
// and sums the results.
func (c *Cluster) SanitizeMedia(actor string) (dropped int, reclaimed int64, err error) {
	errs := c.gather(func(_ int, v *Vault) error {
		d, r, err := v.SanitizeMedia(actor)
		dropped += d
		reclaimed += r
		return err
	})
	return dropped, reclaimed, joinShardErrs(errs)
}

// RecordIDs returns the IDs of live records, sorted.
func (c *Cluster) RecordIDs() []string {
	parts := make([][]string, len(c.shards))
	for i, v := range c.shards {
		parts[i] = v.RecordIDs()
	}
	return unionIDs(parts)
}

// ExpiredRecords returns live records past their retention period and not
// under legal hold — the disposition work list, from the shared retention
// manager (already globally sorted).
func (c *Cluster) ExpiredRecords() []string { return c.ret.Expired() }
