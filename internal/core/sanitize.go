package core

import (
	"fmt"
	"path/filepath"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/blockstore"
)

// SanitizeMedia rewrites the vault's block storage, physically dropping the
// ciphertext of shredded records. Crypto-shredding already makes that
// ciphertext permanently unreadable; sanitization additionally removes the
// bytes from the medium, which matters when the medium itself is disposed of
// or re-used (HIPAA §164.310(d)(2)(i)-(ii) govern "the media or hardware on
// which the records are stored", not just the records).
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
// The vault rewrites its segment files into fresh ones and swaps
// directories, then snapshots metadata and checkpoints the WAL (the rewrite
// changed every block reference, so stale WAL intents must not be
// replayable, and truncating meta.wal drops the shredded ciphertext in it).
// The directory swap is sequenced old→aside, new→live, remove-aside; a crash between the renames leaves a recoverable directory
// rather than a half-written one.
func (v *Vault) SanitizeMedia(actor string) (dropped int, reclaimed int64, err error) {
	// The rewrite swaps the whole block store under every record at once, so
	// it runs under the exclusive gate: in-flight operations drain first and
	// none start until the swap is complete.
	ctx, done, err := v.beginExclusive("sanitize")
	defer done(&err)
	if err != nil {
		return 0, 0, err
	}
	if err := v.authorize(ctx, actor, authz.ActShred, audit.ActionDelete, "", 0, ""); err != nil {
		return 0, 0, err
	}
	// A wedged WAL refuses the closing checkpoint: refuse before the swap.
	if err := v.metaWAL.Wedged(); err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: %w", err)
	}
	before := v.StorageBytes()

	// Build the sanitized replacement store.
	freshDir := filepath.Join(v.dir, "blocks.sanitize")
	if err := v.fs.RemoveAll(freshDir); err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: clearing staging dir: %w", err)
	}
	fresh, err := blockstore.OpenFileFS(v.fs, freshDir, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: staging store: %w", err)
	}

	// Copy live ciphertext into the replacement, keeping each record's new refs
	// aside (nil: a shredded record whose bytes are dropped). The registry only
	// changes once the replacement is the live medium, so a pass that fails
	// while copying leaves the vault as it was and can simply be run again.
	moved := map[*recordState][]blockstore.Ref{}
	for _, r := range v.registry() {
		st := r.st
		if st.shredded.Load() {
			if !st.sanitized {
				dropped += int(st.count())
				moved[st] = nil
			}
			continue
		}
		refs := make([]blockstore.Ref, st.count())
		for i := range refs {
			ct, err := v.ciphertext(st.at(uint64(i) + 1).ref())
			if err == nil {
				refs[i], err = fresh.Append(ct)
			}
			if err != nil {
				_ = fresh.Close()
				return 0, 0, fmt.Errorf("core: sanitize: rewriting %s v%d: %w", r.id, i+1, err)
			}
		}
		moved[st] = refs
	}

	if err := fresh.Sync(); err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: syncing staging store: %w", err)
	}
	if err := fresh.Close(); err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: closing staging store: %w", err)
	}
	if err := v.blocks.Close(); err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: closing old store: %w", err)
	}
	liveDir := filepath.Join(v.dir, "blocks")
	asideDir := filepath.Join(v.dir, "blocks.old")
	if err := v.fs.Rename(liveDir, asideDir); err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: setting old media aside: %w", err)
	}
	if err := v.fs.Rename(freshDir, liveDir); err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: activating sanitized media: %w", err)
	}
	if err := v.fs.RemoveAll(asideDir); err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: destroying old media: %w", err)
	}
	reopened, err := blockstore.OpenFileFS(v.fs, liveDir, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("core: sanitize: reopening sanitized media: %w", err)
	}
	v.blocks = reopened
	for st, refs := range moved {
		st.sanitized = refs == nil
		for i, ref := range refs {
			vs := st.at(uint64(i) + 1)
			vs.segment, vs.offset = ref.Segment, ref.Offset
		}
	}
	// Metadata now references the new media only: snapshot and drop stale
	// WAL intents (a kept one is covered by the snapshot, so replay only
	// completes its custody event).
	if err := v.checkpoint(); err != nil {
		return 0, 0, err
	}
	// The rewrite relocated every block, so no cached (ref, bytes) pair is
	// current — and sanitization's whole point is that shredded bytes leave
	// the medium, which must include this cache.
	v.bcache.purge()
	reclaimed = before - v.StorageBytes()

	_, _ = v.aud.Append(audit.Event{
		Actor:   actor,
		Action:  audit.ActionDelete,
		Outcome: audit.OutcomeAllowed,
		Detail:  fmt.Sprintf("media sanitization: %d shredded version(s) removed from media, %d bytes reclaimed", dropped, reclaimed),
	})
	return dropped, reclaimed, nil
}
