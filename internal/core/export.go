package core

import (
	"context"
	"fmt"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/ehr"
	"medvault/internal/provenance"
	"medvault/internal/vcrypto"
)

// ExportedVersion is one decrypted version of a record prepared for
// migration or backup. The plaintext leaves the vault only through Export,
// which demands migrate/backup permission and audits the extraction.
type ExportedVersion struct {
	Record    ehr.Record
	Version   Version // metadata as committed at the source (Ref is source-local)
	PlainHash [32]byte
}

// ExportBundle carries one record's full history and custody chain.
type ExportBundle struct {
	ID       string
	Category ehr.Category
	Versions []ExportedVersion
	Custody  []provenance.Event
}

// Export decrypts the record's full version history for transfer. The
// export is audited; migration bookkeeping (custody events, manifest
// signatures) is the migrate package's job.
func (v *Vault) Export(actor, id string) (_ ExportBundle, err error) {
	ctx, done, err := v.begin(context.Background(), "export", id)
	defer done(&err)
	if err != nil {
		return ExportBundle{}, err
	}
	mu := v.stripes.forRecord(id)
	mu.RLock()
	defer mu.RUnlock()
	st, err := v.stateFor(id)
	if err != nil {
		return ExportBundle{}, err
	}
	category := v.category(st)
	if err := v.authorize(ctx, actor, authz.ActMigrate, audit.ActionMigrateOut, id, 0, string(category)); err != nil {
		return ExportBundle{}, err
	}
	bundle := ExportBundle{ID: id, Category: category}
	for _, ver := range v.versions(st) {
		rec, err := v.readVersion(ctx, id, st, ver)
		if err != nil {
			return ExportBundle{}, fmt.Errorf("core: exporting %s v%d: %w", id, ver.Number, err)
		}
		bundle.Versions = append(bundle.Versions, ExportedVersion{
			Record:    rec,
			Version:   ver,
			PlainHash: plainHash(rec),
		})
	}
	// The custody chain leaves signed: the medium holds the vault's own
	// events under a MAC, and the target checks signatures.
	custody, err := v.prov.Export(id)
	if err != nil {
		return ExportBundle{}, err
	}
	bundle.Custody = custody
	return bundle, nil
}

// plainHash is the content commitment used across systems: a hash of the
// canonical plaintext encoding, so source and target can agree on content
// even though their ciphertexts differ (different DEKs).
func plainHash(rec ehr.Record) [32]byte {
	return vcrypto.Hash(ehr.Encode(rec))
}

// Import ingests a record history produced by Export on another vault,
// re-encrypting every version under this vault's keys and adopting the
// custody chain. The caller (the migrate package) has already verified the
// manifest; Import re-verifies content hashes anyway — defence in depth.
func (v *Vault) Import(actor string, bundle ExportBundle, sourceSystem string) error {
	return v.importAs("import", actor, bundle, sourceSystem, provenance.EventMigratedIn, audit.ActionMigrateIn)
}

// ImportRestored ingests a bundle from a verified backup archive; the
// custody chain gains a restored event instead of a migrated-in one.
func (v *Vault) ImportRestored(actor string, bundle ExportBundle, sourceSystem string) error {
	return v.importAs("import_restored", actor, bundle, sourceSystem, provenance.EventRestored, audit.ActionRestore)
}

func (v *Vault) importAs(op, actor string, bundle ExportBundle, sourceSystem string, custodyType provenance.EventType, auditAction audit.Action) (err error) {
	ctx, done, err := v.begin(context.Background(), op, bundle.ID)
	defer done(&err)
	if err != nil {
		return err
	}
	if len(bundle.Versions) == 0 {
		return fmt.Errorf("core: bundle for %s has no versions", bundle.ID)
	}
	if err := v.authorize(ctx, actor, authz.ActMigrate, auditAction, bundle.ID, 0, string(bundle.Category)); err != nil {
		return err
	}
	mu := v.stripes.forRecord(bundle.ID)
	mu.Lock()
	defer mu.Unlock()
	for i, ev := range bundle.Versions {
		if ev.Version.Number != uint64(i)+1 {
			return fmt.Errorf("core: bundle for %s has non-contiguous versions", bundle.ID)
		}
		if plainHash(ev.Record) != ev.PlainHash {
			return fmt.Errorf("%w: %s v%d content hash mismatch in bundle", ErrTampered, bundle.ID, ev.Version.Number)
		}
		// A version's identity is version 1's, as CorrectCtx enforces: each
		// read checks its seal against the record's.
		if ev.Record.ID != bundle.ID || ev.Record.Category != bundle.Category || ev.Record.MRN != bundle.Versions[0].Record.MRN {
			return fmt.Errorf("%w: bundle mixes records", ErrTampered)
		}
	}
	// The custody chain is checked whole before anything commits: a chain
	// Adopt would refuse must not leave committed versions behind.
	if err := provenance.CheckChain(bundle.ID, bundle.Custody); err != nil {
		return fmt.Errorf("%w: custody of %s: %w", ErrTampered, bundle.ID, err)
	}
	// Nor may an import start while the shard owes custody events: Adopt
	// would refuse its chain after its versions committed.
	if v.prov.Wedged() {
		return fmt.Errorf("core: importing %s: %w", bundle.ID, provenance.ErrWedged)
	}
	dek, wrapped, err := v.mintFor(bundle.ID, bundle.Category)
	if err != nil {
		return err
	}
	// Each version is its own commit: an import that fails midway leaves the
	// committed prefix — the same record a restart would recover from the WAL.
	var last Version
	for _, ev := range bundle.Versions {
		if last, err = v.commitVersion(ctx, ev.Record, ev.Version.Author, ev.Version.Number, dek, wrapped, false, nil); err != nil {
			return err
		}
		wrapped = nil
	}

	// Adopt the source's custody chain, then extend it with the arrival.
	if err := v.prov.Adopt(bundle.ID, bundle.Custody); err != nil {
		return fmt.Errorf("core: adopting custody of %s: %w", bundle.ID, err)
	}
	if _, err := v.prov.Record(bundle.ID, custodyType, actor, last.CtHash, sourceSystem); err != nil {
		return err
	}
	// The adopted chain and the arrival ride in no meta.wal entry, so the
	// import is durable at ack only once the custody store is.
	if err := v.provStore.Sync(); err != nil {
		return fmt.Errorf("core: syncing custody of %s: %w", bundle.ID, err)
	}
	return nil
}

// RecordBackedUp extends custody chains with backed-up events after a
// successful archive write; called by the backup package. The actor needs
// backup permission, and the decision is audited, before anything is
// appended.
func (v *Vault) RecordBackedUp(actor, id, destination string) error {
	return v.recordCustody("record_backed_up", id, provenance.EventBackedUp, authz.ActBackup, audit.ActionBackup, actor, destination)
}

// RecordMigratedOut extends the custody chain with a migrated-out event
// after a successful transfer; called by the migrate package. The actor
// needs migrate permission, and the decision is audited, before anything is
// appended.
func (v *Vault) RecordMigratedOut(actor, id, targetSystem string) error {
	return v.recordCustody("record_migrated_out", id, provenance.EventMigratedOut, authz.ActMigrate, audit.ActionMigrateOut, actor, targetSystem)
}

// recordCustody authorizes and audits the act, as Export does, then extends
// the record's custody chain with an event carrying the latest version's
// ciphertext hash.
func (v *Vault) recordCustody(op, id string, typ provenance.EventType, act authz.Action, auditAction audit.Action, actor, peer string) (err error) {
	ctx, done, err := v.begin(context.Background(), op, id)
	defer done(&err)
	if err != nil {
		return err
	}
	mu := v.stripes.forRecord(id)
	mu.RLock()
	defer mu.RUnlock()
	st, err := v.stateFor(id)
	if err != nil {
		return err
	}
	if err := v.authorize(ctx, actor, act, auditAction, id, 0, string(v.category(st))); err != nil {
		return err
	}
	_, err = v.prov.Record(id, typ, actor, st.at(st.count()).ctHash, peer)
	return err
}
