// Package worm implements software compliance-WORM storage, the model the
// paper calls "the most promising technology for secure storage of health
// records" (its references [5, 9, 10]).
//
// Records are written once into an append-only segment store, encrypted
// under per-record data keys (so expired records can be crypto-shredded),
// committed to a Merkle log with signed tree heads (so direct-disk tampering
// and history rewriting are detectable), indexed through a
// keyword-concealing SSE index, and locked by retention policy.
//
// What it deliberately cannot do is the paper's core criticism: "compliance
// WORM storage is mainly suitable for records that do not require
// corrections... Currently, trustworthy WORM storage systems do not support
// such corrections." Correct always fails with ErrWriteOnce. Closing that
// gap is what the hybrid vault (internal/core) exists for.
package worm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/frame"
	"medvault/internal/index"
	"medvault/internal/merkle"
	"medvault/internal/retention"
	"medvault/internal/stores"
	"medvault/internal/vcrypto"
)

// ErrWriteOnce indicates an attempted in-place modification of a committed
// record. It wraps stores.ErrUnsupported so the experiment harness can treat
// it uniformly.
var ErrWriteOnce = fmt.Errorf("worm: record is write-once: %w", stores.ErrUnsupported)

// entry is the location and commitment of one committed record.
type entry struct {
	ref       blockstore.Ref
	hash      [32]byte // ciphertext hash committed to the Merkle log
	leafIndex uint64
	category  ehr.Category
}

// Store is a software compliance-WORM store.
type Store struct {
	mu      sync.RWMutex
	blocks  *blockstore.File
	keys    *vcrypto.KeyStore
	log     *merkle.Log
	idx     *index.SSE
	ret     *retention.Manager
	signer  *vcrypto.Signer
	records map[string]entry
}

var (
	_ stores.Store      = (*Store)(nil)
	_ stores.Tamperable = (*Store)(nil)
)

// Config configures a WORM store.
type Config struct {
	Master vcrypto.Key // root secret: derives DEK wrapping, index keys, signer
	Clock  clock.Clock // nil means the system clock
	// Policies are the retention schedules to enforce. Empty means
	// StandardPolicies.
	Policies []retention.Policy
}

// New returns an empty WORM store.
func New(cfg Config) *Store {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	pols := cfg.Policies
	if len(pols) == 0 {
		pols = retention.StandardPolicies()
	}
	ret := retention.NewManager(clk)
	for _, p := range pols {
		ret.SetPolicy(p)
	}
	signer := vcrypto.SignerFromSeed(vcrypto.DeriveKey(cfg.Master, "worm/signer"))
	return &Store{
		blocks:  blockstore.NewMemory(0),
		keys:    vcrypto.NewKeyStore(vcrypto.DeriveKey(cfg.Master, "worm/kek")),
		log:     merkle.NewLog(signer, func() time.Time { return clk.Now() }),
		idx:     index.NewSSE(vcrypto.DeriveKey(cfg.Master, "worm/index")),
		ret:     ret,
		signer:  signer,
		records: make(map[string]entry),
	}
}

// Name implements stores.Store.
func (s *Store) Name() string { return "worm" }

// leafData encodes what the Merkle log commits to for a record.
func leafData(id string, ctHash [32]byte) []byte {
	return append(frame.AppendStr([]byte("worm/leaf/v1\x00"), id), ctHash[:]...)
}

// Put implements stores.Store: encrypt under a fresh per-record DEK, append
// to the write-once log, commit to the Merkle tree, index, start retention.
func (s *Store) Put(rec ehr.Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.records[rec.ID]; ok {
		return fmt.Errorf("%w: %s", stores.ErrExists, rec.ID)
	}
	dek, err := s.keys.Create(rec.ID)
	if err != nil {
		if errors.Is(err, vcrypto.ErrShredded) {
			return fmt.Errorf("worm: %s was disposed; IDs are never reused: %w", rec.ID, err)
		}
		return err
	}
	ct, err := vcrypto.Seal(dek, ehr.Encode(rec), []byte(rec.ID))
	if err != nil {
		return fmt.Errorf("worm: sealing %s: %w", rec.ID, err)
	}
	ref, err := s.blocks.Append(ct)
	if err != nil {
		return fmt.Errorf("worm: storing %s: %w", rec.ID, err)
	}
	h := vcrypto.Hash(ct)
	leaf := s.log.Append(leafData(rec.ID, h))
	if err := s.ret.Track(rec.ID, string(rec.Category), rec.CreatedAt); err != nil {
		return fmt.Errorf("worm: retention tracking %s: %w", rec.ID, err)
	}
	s.idx.Add(rec.ID, rec.SearchText())
	s.records[rec.ID] = entry{ref: ref, hash: h, leafIndex: leaf, category: rec.Category}
	return nil
}

// Get implements stores.Store: read, CRC-check, decrypt, and verify the
// ciphertext hash against the Merkle-committed value.
func (s *Store) Get(id string) (ehr.Record, error) {
	s.mu.RLock()
	e, ok := s.records[id]
	s.mu.RUnlock()
	if !ok {
		return ehr.Record{}, fmt.Errorf("%w: %s", stores.ErrNotFound, id)
	}
	ct, err := s.blocks.Read(e.ref)
	if err != nil {
		return ehr.Record{}, fmt.Errorf("%w: %s: %v", stores.ErrTampered, id, err)
	}
	if vcrypto.Hash(ct) != e.hash {
		return ehr.Record{}, fmt.Errorf("%w: %s: ciphertext hash mismatch", stores.ErrTampered, id)
	}
	dek, err := s.keys.Get(id)
	if err != nil {
		return ehr.Record{}, fmt.Errorf("worm: key for %s: %w", id, err)
	}
	pt, err := vcrypto.Open(dek, ct, []byte(id))
	if err != nil {
		return ehr.Record{}, fmt.Errorf("%w: %s: %v", stores.ErrTampered, id, err)
	}
	return ehr.Decode(pt)
}

// Correct implements stores.Store: always refused. This is the defining
// limitation of the WORM model.
func (s *Store) Correct(rec ehr.Record) error {
	s.mu.RLock()
	_, ok := s.records[rec.ID]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", stores.ErrNotFound, rec.ID)
	}
	return fmt.Errorf("%s: %w", rec.ID, ErrWriteOnce)
}

// Search implements stores.Store via the SSE index.
func (s *Store) Search(keyword string) ([]string, error) {
	return s.idx.Search(keyword), nil
}

// Dispose implements stores.Store: allowed only after retention (with no
// legal hold), and implemented as crypto-shredding — the ciphertext stays in
// the write-once log forever, but is permanently unreadable.
func (s *Store) Dispose(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.records[id]; !ok {
		return fmt.Errorf("%w: %s", stores.ErrNotFound, id)
	}
	if err := s.ret.CanDispose(id); err != nil {
		return err
	}
	if err := s.keys.Shred(id); err != nil {
		return fmt.Errorf("worm: shredding key for %s: %w", id, err)
	}
	s.idx.Remove(id)
	s.ret.Forget(id)
	delete(s.records, id)
	return nil
}

// Verify implements stores.Store: every record's ciphertext must match its
// committed hash, carry a valid Merkle inclusion proof, and decrypt cleanly.
func (s *Store) Verify() error {
	s.mu.RLock()
	ids := make([]string, 0, len(s.records))
	for id := range s.records {
		ids = append(ids, id)
	}
	entries := make(map[string]entry, len(s.records))
	for id, e := range s.records {
		entries[id] = e
	}
	size := s.log.Size()
	root, rootErr := s.log.Tree().RootAt(size)
	s.mu.RUnlock()
	if rootErr != nil {
		return rootErr
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := entries[id]
		ct, err := s.blocks.Read(e.ref)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", stores.ErrTampered, id, err)
		}
		if vcrypto.Hash(ct) != e.hash {
			return fmt.Errorf("%w: %s: ciphertext hash mismatch", stores.ErrTampered, id)
		}
		proof, err := s.log.Tree().InclusionProof(e.leafIndex, size)
		if err != nil {
			return fmt.Errorf("worm: proving %s: %w", id, err)
		}
		if err := merkle.VerifyInclusion(leafData(id, e.hash), e.leafIndex, size, proof, root); err != nil {
			return fmt.Errorf("%w: %s: %v", stores.ErrTampered, id, err)
		}
		dek, err := s.keys.Get(id)
		if err != nil {
			return fmt.Errorf("worm: key for %s: %w", id, err)
		}
		if _, err := vcrypto.Open(dek, ct, []byte(id)); err != nil {
			return fmt.Errorf("%w: %s: %v", stores.ErrTampered, id, err)
		}
	}
	return nil
}

// Head returns the current signed Merkle tree head. Remember it off-system
// and pass it to CheckExtends later to detect history rewriting.
func (s *Store) Head() merkle.SignedTreeHead { return s.log.Head() }

// CheckExtends verifies the store's commitment log is an append-only
// extension of a remembered head.
func (s *Store) CheckExtends(old merkle.SignedTreeHead) error {
	return s.log.CheckExtends(old, s.signer.Public())
}

// Retention exposes the retention manager (for placing legal holds and
// inspecting schedules in examples and experiments).
func (s *Store) Retention() *retention.Manager { return s.ret }

// Len implements stores.Store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// StorageBytes implements stores.Store.
func (s *Store) StorageBytes() int64 {
	return s.blocks.StorageBytes() + int64(s.idx.StorageBytes())
}

// RawBytes implements stores.Store: the full segment log (shredded records'
// ciphertext included — that is the point) plus the index's stored form.
func (s *Store) RawBytes() []byte {
	out, _ := s.blocks.ReadRaw() // an in-memory disk has no read to fail
	if snap, err := s.idx.Snapshot(); err == nil {
		out = append(out, snap...)
	}
	return out
}

// TamperRecord implements stores.Tamperable: a format-aware insider rewrites
// the record's ciphertext in place with a valid CRC.
func (s *Store) TamperRecord(id string, mutate func([]byte) []byte) error {
	s.mu.RLock()
	e, ok := s.records[id]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", stores.ErrNotFound, id)
	}
	return s.blocks.CorruptFrame(e.ref, mutate)
}
