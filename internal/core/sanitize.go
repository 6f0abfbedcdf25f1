package core

import (
	"fmt"

	"medvault/internal/audit"
	"medvault/internal/authz"
)

// SanitizeMedia physically drops the ciphertext of shredded records from the
// vault's medium. Crypto-shredding already makes that ciphertext permanently
// unreadable; sanitization additionally removes the bytes from the medium,
// which matters when the medium itself is disposed of or re-used (HIPAA
// §164.310(d)(2)(i)-(ii) govern "the media or hardware on which the records
// are stored", not just the records).
//
// What is preserved, deliberately:
//   - Every live version's ciphertext, from the block store or meta.wal
//     (relocated; refs updated).
//   - The entire Merkle commitment log — the *history* that shredded
//     versions existed remains provable; only their payload bytes go.
//   - Audit and provenance trails, including the shred and sanitize events.
//
// After sanitization, shredded versions can no longer be byte-checked
// against their commitments (there are no bytes); VerifyAll skips the
// ciphertext comparison for them and verifies their commitment leaves only.
//
// The pass is a checkpoint that relocates (see checkpoint): live ciphertext
// goes to a fresh segment, meta.snap and the truncated meta.wal reference
// only that, and only then are the older segments cut to zero bytes. The
// block store is never swapped, so a cut or a failure anywhere leaves every
// acked version readable, and running the pass again completes it.
func (v *Vault) SanitizeMedia(actor string) (dropped int, reclaimed int64, err error) {
	// The pass repoints every live version, so it runs under the exclusive
	// gate: in-flight operations drain first and none start until it is done.
	ctx, done, err := v.beginExclusive("sanitize")
	defer done(&err)
	if err != nil {
		return 0, 0, err
	}
	if err := v.authorize(ctx, actor, authz.ActShred, audit.ActionDelete, "", 0, ""); err != nil {
		return 0, 0, err
	}
	// Nothing changes the index during the pass, so only ciphertext is
	// reclaimed.
	before := v.ciphertextBytes()
	dropped, err = v.checkpoint(true)
	// Versions moved and meta.wal may have been truncated, so no cached
	// (ref, bytes) pair is current — and shredded bytes must leave this
	// cache as well as the medium.
	v.bcache.purge()
	if err != nil {
		return 0, 0, err
	}
	reclaimed = before - v.ciphertextBytes()

	_ = v.appendAudit(ctx, audit.Event{
		Actor:   actor,
		Action:  audit.ActionDelete,
		Outcome: audit.OutcomeAllowed,
		Detail:  fmt.Sprintf("media sanitization: %d shredded version(s) removed from media, %d bytes reclaimed", dropped, reclaimed),
	})
	return dropped, reclaimed, nil
}
