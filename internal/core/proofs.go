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
// Asked for with the size of a head the auditor remembers, it also carries
// the consistency path from that size to the same signed head, and so says
// the log containing the version never rewrote what the auditor saw.
type VersionProof struct {
	RecordID  string
	Version   uint64
	CtHash    [32]byte
	LeafIndex uint64
	Inclusion merkle.Proof
	Head      merkle.SignedTreeHead
	// Since is the remembered head size the proof was asked for with (0 for
	// none), and Consistency proves Head extends the log of Since leaves.
	Since       uint64
	Consistency merkle.Proof
}

// proveVersion produces a VersionProof for the given version of the record
// and, when since is not 0, the consistency path from the log of since
// leaves; both are computed against one signed head. It requires (and
// audits) read permission: the proof reveals the record's existence and
// write history even though it reveals no content. A since past the head is
// ErrBadSince, and a version whose leaf is not its own ErrTampered.
func (v *Vault) proveVersion(ctx context.Context, actor, id string, number, since uint64) (_ VersionProof, err error) {
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
	if err := v.checkLeaf(id, target); err != nil {
		return VersionProof{}, err
	}
	// Both proofs are against this head, so a concurrent append cannot
	// leave them under different sizes.
	p := VersionProof{RecordID: id, Version: number, CtHash: target.CtHash, LeafIndex: target.LeafIndex, Head: v.log.Head(), Since: since}
	if since > p.Head.Size {
		return VersionProof{}, fmt.Errorf("%w: since %d, head has %d leaves", ErrBadSince, since, p.Head.Size)
	}
	_, sp := obs.StartSpan(ctx, "merkle.prove")
	sp.SetUint("leaf", target.LeafIndex)
	p.Inclusion, err = v.log.Tree().InclusionProof(target.LeafIndex, p.Head.Size)
	if err == nil {
		p.Consistency, err = v.log.Tree().ConsistencyProof(since, p.Head.Size)
	}
	sp.End(err)
	if err != nil {
		return VersionProof{}, fmt.Errorf("core: proving %s v%d: %w", id, number, err)
	}
	return p, nil
}

// VerifyVersionProof checks a VersionProof against the vault's public key.
// It is a package-level function on purpose: the verifier does not hold a
// vault. ciphertext, when non-nil, is additionally checked against the
// proof's committed hash — pass the bytes received alongside the proof to
// bind content to commitment. remembered, when non-nil, is a head the
// caller verified earlier; the proof must then have been asked for with its
// size, and its consistency path must show that Head extends it.
func VerifyVersionProof(pub vcrypto.PublicKey, p VersionProof, ciphertext []byte, remembered *merkle.SignedTreeHead) error {
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
	if remembered == nil {
		return nil
	}
	if p.Since != remembered.Size {
		return fmt.Errorf("core: proof is from %d leaves, the remembered head has %d", p.Since, remembered.Size)
	}
	if err := merkle.VerifyConsistency(remembered.Size, p.Head.Size, remembered.Root, p.Head.Root, p.Consistency); err != nil {
		return fmt.Errorf("%w: consistency proof: %v", ErrTampered, err)
	}
	return nil
}
