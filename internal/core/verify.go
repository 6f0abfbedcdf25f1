package core

import (
	"errors"
	"fmt"

	"medvault/internal/audit"
	"medvault/internal/merkle"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// Report summarizes a full-vault verification pass.
type Report struct {
	RecordsChecked    int // live and shredded records examined
	VersionsChecked   int // version ciphertexts hash-verified and leaf-checked
	AuditEvents       int // audit chain length verified
	ProvenanceChains  int // custody chains verified
	HeadsChecked      int // remembered tree heads proven consistent
	CheckpointsProven int // remembered audit checkpoints proven
}

// VerifyAll runs the complete integrity sweep the paper's malicious-insider
// threat model demands:
//
//  1. Every version of every record (shredded ones included — their
//     ciphertext must still match its commitment even though it can no
//     longer be decrypted): CRC framing, ciphertext hash, and its own leaf
//     in the commitment log (checkLeaf).
//  2. Live records must also decrypt cleanly under their DEK with the
//     version-bound associated data, to a record whose MRN and category are
//     the registry's.
//  3. The commitment-log size must equal the number of committed versions —
//     a truncated metadata table (rollback hiding a correction) surfaces
//     here — and every live data key must belong to a registered record.
//  4. Every remembered SignedTreeHead must be signature-valid and the
//     current log proven an append-only extension of it — wholesale history
//     rewriting surfaces here.
//  5. The audit hash chain — streamed from the medium once, so that it is
//     the bytes on disk the sweep vouches for, and required to end in the
//     running log's head and to commit to every remembered audit checkpoint
//     — and every custody chain must verify.
//
// The verification itself is written to the audit log.
//
// VerifyAll holds the op gate exclusively: the sweep sees a frozen vault —
// no operation can move the commitment log, the registry, or any version
// list mid-verification — so the size/leaf accounting it checks can never
// be a benign in-flight transient.
func (v *Vault) VerifyAll(rememberedHeads []merkle.SignedTreeHead, rememberedCheckpoints []audit.Checkpoint) (_ Report, err error) {
	ctx, done, err := v.beginExclusive("verify_all")
	defer done(&err)
	var rep Report
	if err != nil {
		return rep, err
	}
	records := v.registry()
	size := v.log.Size()

	fail := func(err error) (Report, error) {
		_ = v.appendAudit(ctx, audit.Event{
			Actor: v.name, Action: audit.ActionVerify,
			Outcome: audit.OutcomeError, Detail: err.Error(),
		})
		return rep, err
	}

	// (3) every committed version is accounted for.
	var totalVersions uint64
	for _, r := range records {
		totalVersions += r.st.count()
	}
	if totalVersions != size {
		return fail(fmt.Errorf("%w: metadata lists %d versions but commitment log has %d leaves", ErrTampered, totalVersions, size))
	}

	// A key for a record the registry does not know is a key held for data
	// the system does not have; apply registers the two together.
	for _, id := range v.keys.IDs() {
		if _, ok := v.lookup(id); !ok {
			return fail(fmt.Errorf("%w: %s: data key held for an unregistered record", ErrTampered, id))
		}
	}

	// (1)+(2) per-record verification.
	for _, r := range records {
		id, st := r.id, r.st
		shredded := st.shredded.Load()
		sanitized := st.sanitized
		rep.RecordsChecked++
		if shredded {
			// Secure-deletion verification: a shredded record's key must be
			// unobtainable from every path. Get exercises the cache-then-
			// unwrap path a reader would take; HasCachedDEK additionally
			// proves no plaintext DEK lingers in the cache — a cached key
			// outliving crypto-shredding is exactly the Boneh–Lipton
			// revocable-backup failure the cache design must exclude.
			if _, err := v.keys.Get(id); !errors.Is(err, vcrypto.ErrShredded) {
				return fail(fmt.Errorf("%w: %s: shredded record's data key is still obtainable", ErrTampered, id))
			}
			if v.keys.HasCachedDEK(id) {
				return fail(fmt.Errorf("%w: %s: plaintext DEK cached after shred", ErrTampered, id))
			}
		}
		for _, ver := range v.versions(st) {
			// Sanitized records have no bytes left on the medium — by
			// design. Their commitment leaves still verify below.
			var ct []byte
			if !sanitized {
				var sum [32]byte
				var err error
				ct, sum, err = v.ciphertext(ver.Ref)
				if err != nil {
					return fail(fmt.Errorf("%w: %s v%d: %v", ErrTampered, id, ver.Number, err))
				}
				if sum != ver.CtHash {
					return fail(fmt.Errorf("%w: %s v%d: ciphertext hash mismatch", ErrTampered, id, ver.Number))
				}
			}
			if err := v.checkLeaf(id, ver); err != nil {
				return fail(err)
			}
			if !shredded {
				dek, err := v.keys.Get(id)
				if err != nil {
					return fail(fmt.Errorf("core: key for %s: %w", id, err))
				}
				obs.CountWork(obs.WorkDecrypt)
				pt, err := vcrypto.Open(dek, ct, sealAAD(id, ver.Number))
				if err == nil {
					_, err = v.sealedRecord(id, st, ver.Number, pt)
				}
				if err != nil {
					return fail(fmt.Errorf("%w: %s v%d: %v", ErrTampered, id, ver.Number, err))
				}
			}
			rep.VersionsChecked++
		}
	}

	// (4) remembered heads.
	for _, head := range rememberedHeads {
		if err := v.log.CheckExtends(head, v.signer.Public()); err != nil {
			return fail(fmt.Errorf("%w: commitment log does not extend remembered head of size %d: %v", ErrTampered, head.Size, err))
		}
		rep.HeadsChecked++
	}

	// (5) audit chain and provenance.
	n, err := v.aud.Verify(v.signer.Public(), rememberedCheckpoints...)
	if err != nil {
		return fail(fmt.Errorf("%w: audit chain: %v", ErrTampered, err))
	}
	rep.AuditEvents, rep.CheckpointsProven = n, len(rememberedCheckpoints)
	// Custody chains may legitimately carry other systems' signatures
	// (migrated records), so signer trust is not restricted here.
	chains, err := v.prov.VerifyAll(nil)
	if err != nil {
		return fail(fmt.Errorf("%w: provenance: %v", ErrTampered, err))
	}
	rep.ProvenanceChains = chains

	_ = v.appendAudit(ctx, audit.Event{
		Actor: v.name, Action: audit.ActionVerify, Outcome: audit.OutcomeAllowed,
		Detail: fmt.Sprintf("verified %d records, %d versions, %d audit events", rep.RecordsChecked, rep.VersionsChecked, rep.AuditEvents),
	})
	return rep, nil
}

// checkLeaf is ErrTampered unless the commitment log's leaf at
// ver.LeafIndex is version ver of id's: all a proof against a root of the
// same tree could check. The sweep and the proof route both run it.
func (v *Vault) checkLeaf(id string, ver Version) error {
	leaf, err := v.log.Tree().LeafHashAt(ver.LeafIndex)
	if err != nil || leaf != merkle.LeafHash(leafData(id, ver.Number, ver.CtHash)) {
		return fmt.Errorf("%w: %s v%d is not leaf %d of the commitment log", ErrTampered, id, ver.Number, ver.LeafIndex)
	}
	return nil
}
