// Package backup implements encrypted, integrity-manifested backup and
// verified restore for vaults.
//
// HIPAA §164.310(d)(2)(iv) requires "a retrievable, exact copy of electronic
// protected health information", and the paper adds that backup copies live
// off-site — i.e. on media the vault does not control, which therefore must
// carry their own confidentiality and integrity. An Archive is:
//
//   - sealed: every record bundle is AES-256-GCM encrypted under a dedicated
//     backup key (never the vault master), so a stolen backup tape leaks
//     nothing;
//   - manifested: a signed manifest commits to every sealed bundle's hash,
//     so a tampered or truncated archive fails verification before a single
//     record is ingested;
//   - incremental-capable: an archive can be taken relative to a previous
//     manifest, capturing only records created or corrected since.
//
// Restore verifies signature and hashes, decrypts, and re-ingests through
// the vault's Import path, which re-verifies content hashes and re-encrypts
// under the target's own keys.
package backup

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
	// ErrArchiveInvalid indicates a manifest signature/structure failure or
	// a sealed bundle that fails authentication.
	ErrArchiveInvalid = errors.New("backup: archive invalid")
	// ErrWrongKey indicates the archive cannot be decrypted with the key.
	ErrWrongKey = errors.New("backup: wrong backup key")
)

// Entry describes one record in the archive.
type Entry struct {
	ID         string
	Versions   int
	SealedHash [32]byte // hash of the sealed bundle bytes
}

// Manifest is the signed table of contents of an archive.
type Manifest struct {
	System    string // source vault name
	Timestamp time.Time
	Full      bool      // full backup vs incremental
	BaseStamp time.Time // for incrementals: timestamp of the base manifest
	Entries   []Entry
	SourceKey vcrypto.PublicKey
	Signature []byte
}

func (m Manifest) signedBytes() []byte {
	b := frame.AppendStr(nil, m.System)
	b = frame.AppendTime(b, m.Timestamp)
	if m.Full {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = frame.AppendTime(b, m.BaseStamp)
	b = frame.AppendCount(b, len(m.Entries))
	for _, e := range m.Entries {
		b = frame.AppendStr(b, e.ID)
		b = frame.AppendCount(b, e.Versions)
		b = append(b, e.SealedHash[:]...)
	}
	return b
}

// Verify checks the manifest signature against the embedded key; callers
// decide whether they trust that key.
func (m Manifest) Verify() error {
	if err := core.VerifySignature(m.SourceKey, "backup-manifest", m.signedBytes(), m.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrArchiveInvalid, err)
	}
	return nil
}

// Archive is a self-contained encrypted backup.
type Archive struct {
	Manifest Manifest
	Sealed   map[string][]byte // record ID -> sealed bundle
}

// Create takes a full backup of every live record in v, sealed under key.
// Each record's custody chain gains a backed-up event naming destination.
func Create(v core.API, actor string, key vcrypto.Key, destination string) (*Archive, error) {
	return create(v, actor, key, destination, nil)
}

// CreateIncremental backs up only records created or corrected since base
// (records whose version count grew, plus records base has never seen).
func CreateIncremental(v core.API, actor string, key vcrypto.Key, destination string, base Manifest) (*Archive, error) {
	if err := base.Verify(); err != nil {
		return nil, fmt.Errorf("backup: base manifest: %w", err)
	}
	baseVersions := make(map[string]int, len(base.Entries))
	for _, e := range base.Entries {
		baseVersions[e.ID] = e.Versions
	}
	return create(v, actor, key, destination, baseVersions)
}

func create(v core.API, actor string, key vcrypto.Key, destination string, baseVersions map[string]int) (*Archive, error) {
	arch := &Archive{Sealed: make(map[string][]byte)}
	arch.Manifest = Manifest{
		System:    v.Name(),
		Timestamp: time.Now().UTC(),
		Full:      baseVersions == nil,
		SourceKey: v.PublicKey(),
	}
	ids := v.RecordIDs()
	sort.Strings(ids)
	for _, id := range ids {
		if baseVersions != nil {
			n, err := v.VersionCount(id)
			if err != nil {
				return nil, fmt.Errorf("backup: inspecting %s: %w", id, err)
			}
			if baseVersions[id] == n {
				continue // unchanged since base
			}
		}
		// Record the custody event first so the exported chain already
		// carries it — the restored copy then proves it came from a backup.
		if err := v.RecordBackedUp(actor, id, destination); err != nil {
			return nil, err
		}
		bundle, err := v.Export(actor, id)
		if err != nil {
			return nil, fmt.Errorf("backup: exporting %s: %w", id, err)
		}
		encoded := core.EncodeBundle(bundle)
		sealed, err := vcrypto.Seal(key, encoded, []byte("backup/"+id))
		if err != nil {
			return nil, fmt.Errorf("backup: sealing %s: %w", id, err)
		}
		arch.Sealed[id] = sealed
		arch.Manifest.Entries = append(arch.Manifest.Entries, Entry{
			ID:         id,
			Versions:   len(bundle.Versions),
			SealedHash: vcrypto.Hash(sealed),
		})
	}
	arch.Manifest.Signature = v.Sign("backup-manifest", arch.Manifest.signedBytes())
	return arch, nil
}

// VerifyArchive checks the archive end-to-end without restoring anything:
// manifest signature (optionally against a trusted key), per-bundle sealed
// hashes, and authenticated decryption of every bundle.
func VerifyArchive(arch *Archive, key vcrypto.Key, trustedKey vcrypto.PublicKey) error {
	if err := arch.Manifest.Verify(); err != nil {
		return err
	}
	if trustedKey != nil && arch.Manifest.SourceKey.String() != trustedKey.String() {
		return fmt.Errorf("%w: signed by unexpected key", ErrArchiveInvalid)
	}
	if len(arch.Sealed) != len(arch.Manifest.Entries) {
		return fmt.Errorf("%w: %d sealed bundles for %d manifest entries", ErrArchiveInvalid, len(arch.Sealed), len(arch.Manifest.Entries))
	}
	for _, e := range arch.Manifest.Entries {
		sealed, ok := arch.Sealed[e.ID]
		if !ok {
			return fmt.Errorf("%w: bundle for %s missing", ErrArchiveInvalid, e.ID)
		}
		if vcrypto.Hash(sealed) != e.SealedHash {
			return fmt.Errorf("%w: bundle for %s altered", ErrArchiveInvalid, e.ID)
		}
		if _, err := vcrypto.Open(key, sealed, []byte("backup/"+e.ID)); err != nil {
			return fmt.Errorf("%w: bundle for %s: %v", ErrWrongKey, e.ID, err)
		}
	}
	return nil
}

// Restore verifies the archive and ingests every record into target. The
// target re-encrypts under its own keys; custody chains are adopted and
// extended with restored events.
func Restore(arch *Archive, key vcrypto.Key, target core.API, actor string) (int, error) {
	if err := VerifyArchive(arch, key, nil); err != nil {
		return 0, err
	}
	restored := 0
	for _, e := range arch.Manifest.Entries {
		plain, err := vcrypto.Open(key, arch.Sealed[e.ID], []byte("backup/"+e.ID))
		if err != nil {
			return restored, fmt.Errorf("%w: %v", ErrWrongKey, err)
		}
		bundle, err := core.DecodeBundle(plain)
		if err != nil {
			return restored, fmt.Errorf("%w: %v", ErrArchiveInvalid, err)
		}
		if err := target.ImportRestored(actor, bundle, arch.Manifest.System); err != nil {
			return restored, fmt.Errorf("backup: restoring %s: %w", e.ID, err)
		}
		restored++
	}
	return restored, nil
}

// Encode serializes the archive to one blob for off-site storage.
//
// Layout: magic "MVBK" | bytes manifest | u32 n { str id | bytes sealed }*
func Encode(arch *Archive) []byte {
	b := frame.AppendBytes([]byte(archiveMagic), encodeManifest(arch.Manifest))
	b = frame.AppendCount(b, len(arch.Manifest.Entries))
	for _, e := range arch.Manifest.Entries {
		b = frame.AppendStr(b, e.ID)
		b = frame.AppendBytes(b, arch.Sealed[e.ID])
	}
	return b
}

const archiveMagic = "MVBK"

// Decode parses the output of Encode.
func Decode(data []byte) (*Archive, error) {
	r := frame.NewReader(data)
	if !r.Magic(archiveMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrArchiveInvalid)
	}
	mBytes := r.Bytes()
	arch := &Archive{Sealed: make(map[string][]byte)}
	for i, n := 0, r.Count(8); i < n; i++ { // id and sealed bundle: two length prefixes
		id := r.Str()
		arch.Sealed[id] = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrArchiveInvalid, err)
	}
	var err error
	if arch.Manifest, err = decodeManifest(mBytes); err != nil {
		return nil, err
	}
	return arch, nil
}

func encodeManifest(m Manifest) []byte {
	b := frame.AppendBytes(m.signedBytes(), m.SourceKey)
	return frame.AppendBytes(b, m.Signature)
}

func decodeManifest(data []byte) (Manifest, error) {
	r := frame.NewReader(data)
	m := Manifest{System: r.Str(), Timestamp: r.Time(), Full: r.U8() == 1, BaseStamp: r.Time()}
	for i, n := 0, r.Count(4+4+32); i < n; i++ {
		e := Entry{ID: r.Str(), Versions: int(r.U32())}
		r.Fixed(e.SealedHash[:])
		m.Entries = append(m.Entries, e)
	}
	m.SourceKey = vcrypto.PublicKey(r.Bytes())
	m.Signature = r.Bytes()
	if err := r.Done(); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest: %v", ErrArchiveInvalid, err)
	}
	return m, nil
}
