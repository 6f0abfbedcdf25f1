// Package core implements MedVault, the hybrid compliance store this
// reproduction exists to build. The paper's conclusion calls for "a hybrid
// model suited for trustworthy regulatory-compliant health-care record
// storage" combining the strengths of the models it surveys; the vault is
// that model:
//
//   - Write-once versioned records: corrections never overwrite — they
//     append a new version chained to its predecessor, so WORM-grade history
//     coexists with HIPAA's right to amend.
//   - Per-record envelope encryption with crypto-shredding for secure
//     deletion and media re-use safety.
//   - A Merkle commitment log with signed tree heads: every version is
//     committed at write time, and verification against any remembered head
//     exposes insider tampering, rollback, and history rewriting.
//   - An SSE index: keyword search without keyword leakage.
//   - A tamper-evident audit chain recording every access decision, allowed
//     or denied, and a signed chain-of-custody provenance graph.
//   - RBAC with minimum-necessary category scoping and audited break-glass.
//   - Retention schedules with legal holds; verified migration and backup
//     live in their own packages on top of the export API.
//
// Open returns the vault: a *Cluster of one or more shards. Every vault
// stores its data in segment files with write-ahead-logged metadata,
// snapshots and crash recovery; without Config.Dir those files live on a
// fresh in-memory disk. Every operation takes a context.Context first —
// when it carries a trace (httpapi, the bench adapter), each mechanism the
// operation touches records a child span under it.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/index"
	"medvault/internal/merkle"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/recno"
	"medvault/internal/retention"
	"medvault/internal/vcrypto"
	"medvault/internal/wal"
)

// Errors returned by the package.
var (
	// ErrNotFound indicates no record with the given ID.
	ErrNotFound = errors.New("core: record not found")
	// ErrExists indicates a Put of an already-existing record ID.
	ErrExists = errors.New("core: record already exists")
	// ErrDenied indicates the actor is not authorized for the operation.
	// The denial has already been written to the audit log.
	ErrDenied = errors.New("core: access denied")
	// ErrShredded indicates the record was securely deleted; its content is
	// unrecoverable by design.
	ErrShredded = errors.New("core: record was securely deleted")
	// ErrTampered indicates integrity verification failed.
	ErrTampered = errors.New("core: tampering detected")
	// ErrIdentityChanged indicates a correction that tries to alter the
	// record's identity (ID, MRN, or category).
	ErrIdentityChanged = errors.New("core: correction must not change record identity")
	// ErrCorrupt indicates persisted metadata — a meta.wal entry or
	// meta.snap — that does not decode in its one encoding.
	ErrCorrupt = errors.New("core: corrupt metadata encoding")
	// ErrBadSince indicates a proof asked for since a head size past the
	// log's.
	ErrBadSince = errors.New("core: since is past the signed head")
	// ErrClosed indicates use of a closed vault.
	ErrClosed = errors.New("core: vault closed")
	// ErrWedged is wal.ErrWedged re-exported, so layers above core (httpapi)
	// can classify "the WAL refused an fsync and the vault cannot durably
	// commit" — a retryable outage, not a client error — without importing
	// the wal package.
	ErrWedged = wal.ErrWedged
)

var metLiveRecords = obs.Default.Gauge("medvault_records_live",
	"Live (non-shredded) records across vaults in this process.")

// Version describes one committed version of a record.
type Version struct {
	Number    uint64 // 1-based; 1 is the original, 2+ are corrections
	Author    string
	Timestamp time.Time
	Ref       blockstore.Ref // location of the ciphertext (see walSegment)
	CtHash    [32]byte       // SHA-256 of the ciphertext, Merkle-committed
	LeafIndex uint64         // position in the commitment log
}

// recordState is the in-memory metadata for one record: one allocation, with
// its first version inline. Strings the registry would repeat per record —
// the patient's MRN, the category and each version's author — are numbers
// in the shard's names table, and times are Unix nanoseconds (the range the
// WAL and snapshot persist). Field protection: category, mrn, created and
// first are immutable after the state is published in the registry; more is
// guarded by the record's lock stripe; shredded is atomic so registry scans
// (Search, Len, PatientRecords) can read it without taking the stripe;
// sanitized and version refs only change under the exclusive gate.
type recordState struct {
	created   int64      // record's own creation date; starts retention
	more      []verState // versions 2, 3, …
	first     verState   // version 1
	mrn       uint32     // names number of the patient's MRN, for accounting of disclosures
	category  uint32     // names number
	shredded  atomic.Bool
	sanitized bool // shredded AND ciphertext removed from media
}

// verState is one committed version as the registry holds it; its number is
// its position. Version, the API form, is built from it on the way out.
type verState struct {
	ctHash  [32]byte // SHA-256 of the ciphertext, Merkle-committed
	ts      int64    // commit time
	leaf    uint64   // position in the commitment log
	offset  uint64   // ciphertext's Ref
	segment uint32
	author  uint32 // names number
}

// count returns how many versions the record has.
func (st *recordState) count() uint64 { return 1 + uint64(len(st.more)) }

// at returns version number (1-based, at most count).
func (st *recordState) at(number uint64) *verState {
	if number == 1 {
		return &st.first
	}
	return &st.more[number-2]
}

func (vs *verState) ref() blockstore.Ref {
	return blockstore.Ref{Segment: vs.segment, Offset: vs.offset}
}

// walSegment is the Ref segment of a ciphertext, or a custody event, still
// in its entry in meta.wal, whose offset is the Ref's; checkpoint moves it.
const walSegment = provenance.PendingSegment

// ciphertext reads the version bytes ref names, from a block or a meta.wal
// entry, and returns them with their SHA-256: core's one reader of either.
// Callers check the sum against the version's hash; decoding the entry
// already took it, so a WAL-resident version is hashed once, not twice.
func (v *Vault) ciphertext(ref blockstore.Ref) ([]byte, [32]byte, error) {
	if ref.Segment != walSegment {
		ct, err := v.blocks.Read(ref)
		if err != nil {
			return nil, [32]byte{}, err
		}
		return ct, vcrypto.Hash(ct), nil
	}
	data, err := v.metaWAL.ReadAt(int64(ref.Offset))
	if err != nil {
		return nil, [32]byte{}, err
	}
	e, err := decodeWALEntry(data)
	if err == nil && e.ct == nil {
		// Only an entry holding its ciphertext has a sum decoding took.
		err = fmt.Errorf("%w: meta.wal entry at %d holds no ciphertext", ErrCorrupt, ref.Offset)
	}
	return e.ct, e.ver.CtHash, err
}

// compact returns ver as the registry holds it.
func (v *Vault) compact(ver Version) verState {
	return verState{
		ctHash: ver.CtHash, ts: ver.Timestamp.UnixNano(), leaf: ver.LeafIndex,
		offset: ver.Ref.Offset, segment: ver.Ref.Segment, author: v.names.Intern(ver.Author),
	}
}

// version builds the record's version number in its API form.
func (v *Vault) version(st *recordState, number uint64) Version {
	vs := st.at(number)
	return Version{
		Number:    number,
		Author:    v.names.ID(vs.author),
		Timestamp: time.Unix(0, vs.ts).UTC(),
		Ref:       vs.ref(),
		CtHash:    vs.ctHash,
		LeafIndex: vs.leaf,
	}
}

// versions builds every version of the record, oldest first.
func (v *Vault) versions(st *recordState) []Version {
	out := make([]Version, st.count())
	for i := range out {
		out[i] = v.version(st, uint64(i)+1)
	}
	return out
}

// category returns the record's category.
func (v *Vault) category(st *recordState) ehr.Category {
	return ehr.Category(v.names.ID(st.category))
}

// Config configures a vault.
type Config struct {
	// Name identifies this vault in provenance custody chains.
	Name string
	// Master is the root secret. Everything key-like (DEK wrapping, index
	// tokens, audit MAC, signing identity) derives from it.
	Master vcrypto.Key
	// Clock supplies time; nil means the system clock.
	Clock clock.Clock
	// Dir is the directory the vault lives in: ciphertext, audit, and
	// provenance go to segment files under it, and record metadata is
	// write-ahead logged and snapshotted for crash recovery. Empty means a
	// fresh in-memory disk (a new faultfs.Mem; FS is then ignored), so the
	// vault and everything in it ends with the process.
	Dir string
	// Shards is the number of independent shards records are hash-partitioned
	// over. 1 is the classic single-vault layout directly under Dir; N > 1
	// puts shard i under Dir/shard-<i> and pins N in Dir/cluster.conf; 0
	// adopts whatever layout Dir already holds (1 for a fresh vault). The
	// count is part of the data layout: reopening a vault with a different
	// count is an error.
	Shards int
	// FS is the filesystem durable state is written through; nil means the
	// real one. The crash-recovery torture harness injects faultfs.Mem (with
	// a fault wrapper) here to simulate power cuts and media faults.
	FS faultfs.FS

	// Flight is the in-memory flight recorder operations report to; nil
	// selects the process-wide obs.DefaultFlight. The vault also checkpoints
	// the ring into crash-decodable segments under Dir/flight.
	Flight *obs.Flight

	// Read-path cache sizing. For each knob, zero selects the default and a
	// negative value disables that cache layer. See DESIGN.md "Read-path
	// caching" for the layers and their invalidation rules.
	//
	// DEKCacheEntries bounds the plaintext-DEK cache inside the key store
	// (default vcrypto.DefaultDEKCacheCap entries).
	DEKCacheEntries int
	// BlockCacheBytes bounds the verified-ciphertext block cache
	// (default DefaultBlockCacheBytes).
	BlockCacheBytes int64
}

// Vault is one shard of a Cluster: a complete hybrid compliance store over
// the records ShardOf routes to it. Callers reach it through Cluster;
// Cluster.Shard hands out the shard itself to harnesses that must address
// one shard's audit chain or tree head. Locking follows the discipline
// documented in locks.go: gate → stripe → leaf locks.
type Vault struct {
	gate    opGate       // open/close lifecycle; ops hold it shared
	stripes lockStripes  // per-record serialization
	regMu   sync.RWMutex // guards the records slice itself (a leaf lock)

	name   string
	clk    clock.Clock
	signer *vcrypto.Signer
	keys   *vcrypto.KeyStore
	blocks *blockstore.File
	log    *merkle.Log
	idx    *index.SSE
	aud    *audit.Log
	prov   *provenance.Tracker
	auth   *authz.Authorizer
	ret    *retention.Manager

	bcache blockCache // verified ciphertext blocks, keyed by Ref

	// recs numbers the shard's records once for the registry, the key store,
	// the custody tracker and the index, whose per-record state is a slice
	// indexed by that number. names numbers MRNs, categories and authors.
	recs     *recno.Table
	names    *recno.Table
	records  []*recordState // record number -> state; nil: no record holds it
	inline   atomic.Int64   // ciphertext bytes still inline in meta.wal
	metaWAL  *wal.Log
	dir      string
	fs       faultfs.FS
	masterFP string       // master key fingerprint, for manifests
	recovery RecoveryInfo // what the last Open rebuilt
	shard    string       // shard index label when part of a >1-shard Cluster

	// replaying is set while recover replays meta.wal: apply's custody step
	// completes events there instead of pending them.
	replaying bool

	flight *obs.Flight       // in-memory ring ops report to (never nil)
	fsink  *obs.FlightSink   // durable segment sink under dir/flight; may be nil
	tokens *vcrypto.KeyedMAC // keys the flight events' record tokens (recordToken)

	// auditStore and provStore are retained so Close can release their
	// file handles (the audit and provenance logs do not own closing them).
	auditStore, provStore *blockstore.File
}

// openShard creates or reopens one shard under dir. cfg arrives normalized
// by Open — Name, Clock, Dir and FS are set — and auth and ret are the
// cluster-wide authorizer and retention manager every shard shares. A
// non-empty tag labels the shard's metrics and spans.
func openShard(cfg Config, dir, tag string, auth *authz.Authorizer, ret *retention.Manager) (*Vault, error) {
	clk, fsys := cfg.Clock, cfg.FS
	signer := vcrypto.SignerFromSeed(vcrypto.DeriveKey(cfg.Master, "vault/signer"))
	now := func() time.Time { return clk.Now() }

	recs := recno.New()
	v := &Vault{
		name:     cfg.Name,
		clk:      clk,
		signer:   signer,
		keys:     vcrypto.NewKeyStoreOn(recs, vcrypto.DeriveKey(cfg.Master, "vault/kek"), cacheCap(cfg.DEKCacheEntries, vcrypto.DefaultDEKCacheCap)),
		idx:      index.NewSSEOn(recs, vcrypto.DeriveKey(cfg.Master, "vault/index")),
		auth:     auth,
		ret:      ret,
		bcache:   newBlockCache(cacheCap(cfg.BlockCacheBytes, int64(DefaultBlockCacheBytes)), tag),
		recs:     recs,
		names:    recno.New(),
		dir:      dir,
		fs:       fsys,
		masterFP: cfg.Master.Fingerprint(),
		shard:    tag,
		flight:   cfg.Flight,
		tokens:   vcrypto.NewKeyedMAC(vcrypto.DeriveKey(cfg.Master, "vault/flight-token")),
	}
	if v.flight == nil {
		v.flight = obs.DefaultFlight
	}

	var err error
	stores := make([]*blockstore.File, 3)
	for i, name := range []string{"blocks", "audit", "prov"} {
		if stores[i], err = blockstore.OpenFileFS(fsys, filepath.Join(dir, name), 0); err != nil {
			return nil, fmt.Errorf("core: opening %s store: %w", name, err)
		}
	}
	v.blocks, v.auditStore, v.provStore = stores[0], stores[1], stores[2]

	v.aud, err = audit.Open(audit.Config{
		Store:  v.auditStore,
		MACKey: vcrypto.DeriveKey(cfg.Master, "vault/audit-mac"),
		Signer: signer,
		Now:    now,
	})
	if err != nil {
		return nil, err
	}
	// The chain's events since the last checkpoint live in meta.wal, which
	// recover replays into it.
	v.aud.Attach(audit.Tail{
		Enqueue: v.enqueueAudit,
		Scan:    v.scanAudit,
		Wedged:  func() error { return v.metaWAL.Wedged() },
	})
	v.prov, err = provenance.Open(provenance.Config{
		Store:   v.provStore,
		Signer:  signer,
		System:  cfg.Name,
		Now:     now,
		Records: recs,
		Pending: v.pendingCustody,
	})
	if err != nil {
		return nil, err
	}

	v.log = merkle.NewLog(signer, now)

	if err := v.recover(cfg.Master); err != nil {
		// Hand back what loadSnapshot and apply added to the live-records
		// gauge (it is process-wide) before the failure.
		metLiveRecords.Add(-float64(v.Len()))
		return nil, err
	}
	// The flight sink is best-effort by design: a vault that cannot persist
	// observability events still serves records. Segments go through v.fs —
	// the same seam the vault's own data uses — so the torture harness sees
	// them and a replicating primary ships them.
	if sink, err := obs.OpenFlightSink(fsys, filepath.Join(dir, "flight")); err == nil {
		v.fsink = sink
	}
	return v, nil
}

// RecoveryInfo describes what the last Open rebuilt (summed over shards).
type RecoveryInfo struct {
	SnapshotLoaded bool // a metadata snapshot existed and was restored
	WALEntries     int  // WAL entries replayed on top of the snapshot
	RecordsLive    int  // live records immediately after recovery
}

// recover loads the metadata snapshot and replays the WAL through apply,
// rebuilding the records table, key store, Merkle log, and index.
func (v *Vault) recover(master vcrypto.Key) error {
	if err := v.loadSnapshot(master, filepath.Join(v.dir, "meta.snap")); err != nil {
		return err
	}
	v.replaying = true
	w, err := wal.OpenFS(v.fs, filepath.Join(v.dir, "meta.wal"), func(e wal.Entry) error {
		v.recovery.WALEntries++
		obs.CountWork(obs.WorkWALReplay)
		return v.replay(e)
	})
	v.replaying = false
	if err != nil {
		return fmt.Errorf("core: recovering metadata WAL: %w", err)
	}
	v.metaWAL = w
	v.recovery.RecordsLive = v.Len()
	return nil
}

// HealthStatus is a point-in-time report of vault liveness for /healthz.
// A vault is serving when Open is true and WALWedged and AuditWedged are
// false.
type HealthStatus struct {
	Open          bool         // admitting operations (Close has not run)
	WALWedged     bool         // the metadata WAL refused an fsync and halted
	WALWedgeError string       // the wedging error, when WALWedged
	AuditWedged   bool         // no audit event can be written (the WAL's wedge); audited operations answer wedged until reopen
	WALQueueDepth int          // durable meta.wal entries written, awaiting their fsync
	InFlightOps   int          // vault operations currently executing
	LiveRecords   int          // non-shredded records
	LastRecovery  RecoveryInfo // what the last Open rebuilt
	// Shards is each shard's own report, in shard order — the detail behind
	// the merged fields above. Nil for a one-shard vault.
	Shards []HealthStatus
}

// Health reports the shard's current liveness. It takes no vault locks
// beyond the registry read lock, so it answers even while Close is draining
// or the WAL is wedged — exactly the situations a health probe exists for.
func (v *Vault) Health() HealthStatus {
	h := HealthStatus{
		Open:          !v.gate.isShut(),
		WALQueueDepth: v.metaWAL.QueueDepth(),
		InFlightOps:   int(metInflightOps.Value()),
		LiveRecords:   v.Len(),
		LastRecovery:  v.recovery,
		AuditWedged:   v.aud.Wedged(),
	}
	if err := v.metaWAL.Wedged(); err != nil {
		h.WALWedged = true
		h.WALWedgeError = err.Error()
	}
	return h
}

// Head returns the shard's current signed Merkle tree head. Store it
// off-system; pass it back to the shard's VerifyAll to detect history
// rewriting.
func (v *Vault) Head() merkle.SignedTreeHead { return v.log.Head() }

// Len returns the number of live (non-shredded) records.
func (v *Vault) Len() int {
	v.regMu.RLock()
	defer v.regMu.RUnlock()
	n := 0
	for _, st := range v.records {
		if st != nil && !st.shredded.Load() {
			n++
		}
	}
	return n
}

// StorageBytes reports bytes consumed by ciphertext, wherever it lives, plus
// the index's stored form — the cost-experiment accounting.
func (v *Vault) StorageBytes() int64 {
	return v.ciphertextBytes() + int64(v.idx.StorageBytes())
}

// ciphertextBytes is StorageBytes without the index, whose stored form takes
// a snapshot of the whole index to measure.
func (v *Vault) ciphertextBytes() int64 {
	return v.blocks.StorageBytes() + v.inline.Load()
}

// Close flushes state and releases resources. It writes a metadata snapshot
// and checkpoints the WAL (see checkpoint), so the next Open is fast.
//
// Close first drains: it waits for every in-flight operation to finish (the
// op gate) before releasing anything, so an operation admitted before Close
// always completes against an open vault, and an operation arriving after
// gets ErrClosed — never a half-closed store.
func (v *Vault) Close() error {
	if !v.gate.shut() {
		return nil
	}
	defer v.gate.release(true)
	// The live-records gauge is process-wide: give back what this shard's
	// recovery, puts and imports added, so a directory opened twice in one
	// process (follower promotion, harnesses) is not counted twice.
	metLiveRecords.Add(-float64(v.Len()))
	// Zeroize every cached plaintext DEK before releasing anything: key
	// material must not outlive the vault's lifecycle. The block cache
	// goes too — a later reopen starts cold.
	v.keys.Purge()
	v.bcache.purge()
	if v.fsink != nil {
		v.fsink.Close() // best-effort; flight loss never fails a Close
	}
	if _, err := v.checkpoint(false); err != nil {
		return err
	}
	if err := v.metaWAL.Close(); err != nil {
		return err
	}
	for _, st := range []*blockstore.File{v.blocks, v.auditStore, v.provStore} {
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint is core's one mover of what meta.wal entries hold. It first
// copies the audit chain's tail to the audit store and syncs it
// (audit.Log.Flush), then writes every pending custody event to the custody
// store (Tracker.Flush).
// It then moves every version inline in meta.wal to the block store —
// shredded records' too, which VerifyAll still hashes — or, to sanitize,
// rolls the block store to a fresh segment and copies every live version
// there, wherever it lives, dropping shredded records' versions. It syncs the
// block and custody stores; only then does it repoint the moved
// versions (and mark dropped records sanitized), write meta.snap and truncate
// meta.wal. Sanitizing then empties every older segment. A cut before
// meta.snap leaves the old snapshot, WAL and segments plus orphan frames; one
// after it leaves unreferenced bytes the next pass empties. A wedged WAL, or
// a custody event the flush cannot write, refuses it before anything rolls,
// and keeps meta.wal. The caller holds the op gate exclusively.
func (v *Vault) checkpoint(sanitize bool) (dropped int, err error) {
	if err := v.metaWAL.Wedged(); err != nil {
		return 0, err
	}
	if err := v.aud.Flush(); err != nil {
		return 0, fmt.Errorf("core: checkpoint: writing audit events: %w", err)
	}
	if err := v.prov.Flush(); err != nil {
		return 0, fmt.Errorf("core: checkpoint: writing custody events: %w", err)
	}
	var fresh uint32
	if sanitize {
		if fresh, err = v.blocks.Roll(); err != nil {
			return 0, fmt.Errorf("core: checkpoint: rolling the block store: %w", err)
		}
	}
	var moved []*verState
	var refs []blockstore.Ref
	var gone []*recordState
	for _, r := range v.registry() {
		st := r.st
		if sanitize && st.shredded.Load() && !st.sanitized {
			dropped += int(st.count())
			gone = append(gone, st)
			continue
		}
		for n := uint64(1); n <= st.count() && !st.sanitized; n++ {
			if vs := st.at(n); sanitize || vs.segment == walSegment {
				ct, _, err := v.ciphertext(vs.ref())
				ref := blockstore.Ref{}
				if err == nil {
					ref, err = v.blocks.Append(ct)
				}
				if err != nil {
					return 0, fmt.Errorf("core: checkpoint: moving %s v%d to the block store: %w", r.id, n, err)
				}
				moved, refs = append(moved, vs), append(refs, ref)
			}
		}
	}
	if err := v.blocks.Sync(); err != nil && !errors.Is(err, blockstore.ErrClosed) {
		return 0, fmt.Errorf("core: checkpoint: syncing ciphertext: %w", err)
	}
	if err := v.provStore.Sync(); err != nil && !errors.Is(err, blockstore.ErrClosed) {
		return 0, err
	}
	for i, vs := range moved {
		vs.segment, vs.offset = refs[i].Segment, refs[i].Offset
	}
	for _, st := range gone {
		st.sanitized = true
	}
	v.inline.Store(0) // every inline ciphertext moved, or was sanitized away
	if err := v.writeSnapshotLocked(); err != nil {
		return dropped, err
	}
	if err := v.metaWAL.Checkpoint(); err != nil || !sanitize {
		return dropped, err
	}
	return dropped, v.blocks.EmptyBelow(fresh)
}

// now returns the current vault time in UTC.
func (v *Vault) now() time.Time { return v.clk.Now().UTC() }
