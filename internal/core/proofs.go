package core

import (
	"context"
	"fmt"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/merkle"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// VersionProof is a self-contained, third-party-verifiable statement that a
// specific record version is committed by the vault. An external auditor —
// or a patient exercising their HIPAA access right — can check it with
// nothing but the vault's public key: no access to the vault, its storage,
// or its operators is needed, and no trust in any of them is assumed.
//
// The proof says: "the version with this ciphertext hash is leaf L of the
// commitment log whose signed head (size S, root R) the vault's key signed."
// Combined with a remembered earlier head and a consistency proof, it also
// says the log containing it was never rewritten.
type VersionProof struct {
	RecordID  string
	Version   uint64
	CtHash    [32]byte
	LeafIndex uint64
	Inclusion merkle.Proof
	Head      merkle.SignedTreeHead
}

// ProveVersionCtx produces a VersionProof for the given version of the record.
// It requires (and audits) read permission: the proof reveals the record's
// existence and write history even though it reveals no content.
func (v *Vault) ProveVersionCtx(ctx context.Context, actor, id string, number uint64) (_ VersionProof, err error) {
	ctx, done, err := v.begin(ctx, "prove_version", id)
	defer done(&err)
	if err != nil {
		return VersionProof{}, err
	}
	mu := v.stripes.forRecord(id)
	mu.RLock()
	st, err := v.stateFor(id)
	var category string
	var target Version
	if err == nil {
		category = string(v.category(st))
		if number == 0 || number > st.count() {
			err = fmt.Errorf("%w: %s has no version %d", ErrNotFound, id, number)
		} else {
			target = v.version(st, number)
		}
	}
	mu.RUnlock()
	if err != nil {
		return VersionProof{}, err
	}
	if err := v.authorize(ctx, actor, authz.ActRead, audit.ActionVerify, id, number, category); err != nil {
		return VersionProof{}, err
	}
	_, sp := obs.StartSpan(ctx, "merkle.prove")
	sp.SetUint("leaf", target.LeafIndex)
	proof, size, err := v.log.ProveInclusion(target.LeafIndex)
	sp.End(err)
	if err != nil {
		return VersionProof{}, fmt.Errorf("core: proving %s v%d: %w", id, number, err)
	}
	head := v.log.Head()
	if head.Size != size {
		// A concurrent append moved the head; re-prove against the new size.
		proof, err = v.log.Tree().InclusionProof(target.LeafIndex, head.Size)
		if err != nil {
			return VersionProof{}, fmt.Errorf("core: re-proving %s v%d: %w", id, number, err)
		}
	}
	return VersionProof{
		RecordID:  id,
		Version:   number,
		CtHash:    target.CtHash,
		LeafIndex: target.LeafIndex,
		Inclusion: proof,
		Head:      head,
	}, nil
}

// VerifyVersionProof checks a VersionProof against the vault's public key.
// It is a package-level function on purpose: the verifier does not hold a
// vault. ciphertext, when non-nil, is additionally checked against the
// proof's committed hash — pass the bytes received alongside the proof to
// bind content to commitment.
func VerifyVersionProof(pub vcrypto.PublicKey, p VersionProof, ciphertext []byte) error {
	if err := p.Head.Verify(pub); err != nil {
		return fmt.Errorf("core: proof head: %w", err)
	}
	if ciphertext != nil && vcrypto.Hash(ciphertext) != p.CtHash {
		return fmt.Errorf("%w: ciphertext does not match proof commitment", ErrTampered)
	}
	leaf := leafData(p.RecordID, p.Version, p.CtHash)
	if err := merkle.VerifyInclusion(leaf, p.LeafIndex, p.Head.Size, p.Inclusion, p.Head.Root); err != nil {
		return fmt.Errorf("%w: inclusion proof: %v", ErrTampered, err)
	}
	return nil
}

// ProveExtension proves that the current commitment log extends an earlier
// signed head append-only — the statement an external auditor requests
// periodically to pin the vault's history. Verify with VerifyExtension.
func (v *Vault) ProveExtension(old merkle.SignedTreeHead) (merkle.Proof, merkle.SignedTreeHead, error) {
	proof, size, err := v.log.ProveConsistency(old.Size)
	if err != nil {
		return merkle.Proof{}, merkle.SignedTreeHead{}, fmt.Errorf("core: proving extension: %w", err)
	}
	head := v.log.Head()
	if head.Size != size {
		proof, err = v.log.Tree().ConsistencyProof(old.Size, head.Size)
		if err != nil {
			return merkle.Proof{}, merkle.SignedTreeHead{}, fmt.Errorf("core: re-proving extension: %w", err)
		}
	}
	return proof, head, nil
}

// VerifyExtension checks that newHead extends oldHead append-only; both
// heads must be signed by pub.
func VerifyExtension(pub vcrypto.PublicKey, oldHead, newHead merkle.SignedTreeHead, proof merkle.Proof) error {
	if err := oldHead.Verify(pub); err != nil {
		return fmt.Errorf("core: old head: %w", err)
	}
	if err := newHead.Verify(pub); err != nil {
		return fmt.Errorf("core: new head: %w", err)
	}
	if err := merkle.VerifyConsistency(oldHead.Size, newHead.Size, oldHead.Root, newHead.Root, proof); err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	return nil
}
