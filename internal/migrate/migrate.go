// Package migrate implements trustworthy, verifiable record migration
// between vaults.
//
// The paper: "the resulting migration to new servers must be trustworthy,
// and verifiable", and HIPAA §164.310(d)(2)(iii) requires accounting for
// every movement of records. The protocol here:
//
//  1. The source exports each record's full decrypted history (audited,
//     permission-checked) and builds a manifest committing to every
//     version's content hash, signed under the source's identity.
//  2. Bundles travel as bytes (the Channel hook models the transport and is
//     where the in-transit-tampering experiment injects corruption).
//  3. The target verifies the manifest signature, re-verifies every content
//     hash against the manifest, re-encrypts under its own keys, adopts the
//     signed custody chain, and extends it with a migrated-in event.
//  4. The source records migrated-out custody events, closing the loop: both
//     systems' provenance now agree on the transfer.
//
// Any byte changed in transit — content, history, custody — fails
// verification and aborts the affected record's migration.
package migrate

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"medvault/internal/core"
	"medvault/internal/frame"
	"medvault/internal/vcrypto"
)

// Errors returned by the package.
var (
	// ErrManifestInvalid indicates a manifest signature or structure failure.
	ErrManifestInvalid = errors.New("migrate: manifest invalid")
	// ErrBundleMismatch indicates transferred content disagreeing with the
	// manifest — tampering in transit.
	ErrBundleMismatch = errors.New("migrate: bundle does not match manifest")
)

// ManifestEntry commits to one record's full history: the hash of the whole
// encoded bundle (content, version metadata, custody chain — any byte
// changed in transit breaks it) plus per-version content hashes for
// diagnostics and cross-system content agreement.
type ManifestEntry struct {
	ID          string
	Versions    int
	BundleHash  [32]byte   // SHA-256 of the encoded bundle as sent
	PlainHashes [][32]byte // per version, in order
}

// Manifest is the signed statement of what the source transferred.
type Manifest struct {
	Source    string
	Target    string
	Timestamp time.Time
	Entries   []ManifestEntry
	SourceKey vcrypto.PublicKey
	Signature []byte
}

// signedBytes serializes the signed portion deterministically.
func (m Manifest) signedBytes() []byte {
	b := frame.AppendStr(nil, m.Source)
	b = frame.AppendStr(b, m.Target)
	b = frame.AppendTime(b, m.Timestamp)
	b = frame.AppendCount(b, len(m.Entries))
	for _, e := range m.Entries {
		b = frame.AppendStr(b, e.ID)
		b = frame.AppendCount(b, e.Versions)
		b = append(b, e.BundleHash[:]...)
		for _, h := range e.PlainHashes {
			b = append(b, h[:]...)
		}
	}
	return b
}

// Verify checks the manifest signature against the embedded source key.
// Callers must independently decide whether they trust that key (Migrate
// compares it to the source vault's known identity).
func (m Manifest) Verify() error {
	if err := core.VerifySignature(m.SourceKey, "migration-manifest", m.signedBytes(), m.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrManifestInvalid, err)
	}
	return nil
}

// Channel transports encoded bundles from source to target. The identity
// channel is the default; tests substitute corrupting channels.
type Channel func(encoded []byte) []byte

// Report summarizes a migration run.
type Report struct {
	Migrated  []string // record IDs transferred and verified
	Failed    map[string]error
	Manifest  Manifest
	BytesSent int64
}

// Options configure a migration.
type Options struct {
	// Actor performs the migration on both sides (must hold migrate
	// permission in each vault).
	Actor string
	// Channel models the transport; nil means a faithful channel.
	Channel Channel
}

// Run migrates the records with the given IDs from source to target.
// Records that fail verification are skipped and reported; the rest
// complete. The returned manifest is what the source signed.
func Run(source, target core.API, ids []string, opts Options) (Report, error) {
	if opts.Actor == "" {
		return Report{}, errors.New("migrate: Options.Actor is required")
	}
	ch := opts.Channel
	if ch == nil {
		ch = func(b []byte) []byte { return b }
	}
	rep := Report{Failed: make(map[string]error)}

	// Export everything first and build the manifest over the real content.
	type transfer struct {
		id      string
		encoded []byte
	}
	var transfers []transfer
	manifest := Manifest{
		Source:    source.Name(),
		Target:    target.Name(),
		Timestamp: time.Now().UTC(),
		SourceKey: source.PublicKey(),
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	for _, id := range sorted {
		bundle, err := source.Export(opts.Actor, id)
		if err != nil {
			rep.Failed[id] = fmt.Errorf("export: %w", err)
			continue
		}
		encoded := core.EncodeBundle(bundle)
		entry := ManifestEntry{ID: id, Versions: len(bundle.Versions), BundleHash: vcrypto.Hash(encoded)}
		for _, ev := range bundle.Versions {
			entry.PlainHashes = append(entry.PlainHashes, ev.PlainHash)
		}
		manifest.Entries = append(manifest.Entries, entry)
		transfers = append(transfers, transfer{id: id, encoded: encoded})
	}
	manifest.Signature = source.Sign("migration-manifest", manifest.signedBytes())
	rep.Manifest = manifest

	// Target side: verify the manifest before touching any bundle.
	if err := manifest.Verify(); err != nil {
		return rep, err
	}
	if manifest.SourceKey.String() != source.PublicKey().String() {
		return rep, fmt.Errorf("%w: manifest signed by unexpected key", ErrManifestInvalid)
	}
	entryFor := make(map[string]ManifestEntry, len(manifest.Entries))
	for _, e := range manifest.Entries {
		entryFor[e.ID] = e
	}

	for _, tr := range transfers {
		received := ch(tr.encoded)
		rep.BytesSent += int64(len(received))
		entry, ok := entryFor[tr.id]
		if !ok {
			rep.Failed[tr.id] = fmt.Errorf("%w: record %s not in manifest", ErrBundleMismatch, tr.id)
			continue
		}
		if vcrypto.Hash(received) != entry.BundleHash {
			rep.Failed[tr.id] = fmt.Errorf("%w: %s bundle bytes altered in transit", ErrBundleMismatch, tr.id)
			continue
		}
		bundle, err := core.DecodeBundle(received)
		if err != nil {
			rep.Failed[tr.id] = err
			continue
		}
		if err := checkAgainstManifest(bundle, entryFor); err != nil {
			rep.Failed[tr.id] = err
			continue
		}
		if err := target.Import(opts.Actor, bundle, source.Name()); err != nil {
			rep.Failed[tr.id] = fmt.Errorf("import: %w", err)
			continue
		}
		if err := source.RecordMigratedOut(opts.Actor, tr.id, target.Name()); err != nil {
			rep.Failed[tr.id] = fmt.Errorf("recording custody: %w", err)
			continue
		}
		rep.Migrated = append(rep.Migrated, tr.id)
	}
	return rep, nil
}

// checkAgainstManifest verifies a received bundle byte-for-byte against the
// signed manifest: record known, version count right, every version's
// plaintext hashing to the committed value.
func checkAgainstManifest(b core.ExportBundle, entries map[string]ManifestEntry) error {
	entry, ok := entries[b.ID]
	if !ok {
		return fmt.Errorf("%w: record %s not in manifest", ErrBundleMismatch, b.ID)
	}
	if len(b.Versions) != entry.Versions {
		return fmt.Errorf("%w: %s has %d versions, manifest says %d", ErrBundleMismatch, b.ID, len(b.Versions), entry.Versions)
	}
	for i, ev := range b.Versions {
		if ev.PlainHash != entry.PlainHashes[i] {
			return fmt.Errorf("%w: %s v%d declared hash differs from manifest", ErrBundleMismatch, b.ID, i+1)
		}
		if vcrypto.Hash(encodeRecord(ev)) != entry.PlainHashes[i] {
			return fmt.Errorf("%w: %s v%d content differs from manifest", ErrBundleMismatch, b.ID, i+1)
		}
	}
	return nil
}

// encodeRecord re-canonicalizes the received record for hashing.
func encodeRecord(ev core.ExportedVersion) []byte {
	return core.CanonicalRecordBytes(ev.Record)
}
