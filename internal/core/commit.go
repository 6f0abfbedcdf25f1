package core

import (
	"context"
	"fmt"
	"time"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/ehr"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/recno"
	"medvault/internal/wal"
)

// The one mutation path. A shard's metadata — registry, version lists, key
// store, retention, index — is a function of its log of walEntry values. An
// operation checks, does its expensive work, and hands one entry to commit,
// which logs it and calls apply; recovery is loadSnapshot plus replay, which
// calls the same apply. Nothing else mutates that state (CI greps for it).

// commit makes e durable and then applies it. The WAL sequences every
// commit: a version's leaf joins the Merkle log in the entry's durable hook,
// so leaf order is WAL order and no head ever covers a version a crash can
// lose (see locks.go). rec is the plaintext of a 'V' entry, whose Ref
// becomes the entry's place in meta.wal. An owed allowance, a create's or
// correction's allowed audit event, is sequenced as the chain's next event
// and folded into the entry (audit.Log.AppendFolded), stamped with the
// version's time. The entry is encoded before the audit log's lock is taken,
// but for the fold, and its ciphertext is copied once, into the frame
// meta.wal writes. The caller holds the record's stripe exclusively.
func (v *Vault) commit(ctx context.Context, e *walEntry, rec *ehr.Record, owed *allowance) error {
	var durable func()
	var parts [][]byte
	folded := owed.take()
	if e.kind == 'V' {
		durable = func() { v.appendLeaf(ctx, e) }
		head, mid := e.versionParts(folded)
		parts = [][]byte{head, nil, mid, e.ct} // the fold, if any, goes second
	} else {
		parts = [][]byte{e.encode()}
	}
	_, es := obs.StartSpan(ctx, "wal.enqueue")
	var seq uint64
	var wait func() error
	var err error
	if folded {
		owed.e.Timestamp = e.ver.Timestamp
		err = v.aud.AppendFolded(owed.e, func(fold []byte) (int64, error) {
			e.event, parts[1] = fold, fold
			var err error
			seq, wait, err = v.stage(es, e, parts, durable)
			return int64(e.at.Offset), err
		})
	} else {
		seq, wait, err = v.stage(es, e, parts, durable)
	}
	es.End(nil)
	// wal.commit spans the wait for the fsync that made the entry durable:
	// the durability tax group commit amortizes across concurrent writers.
	_, cs := obs.StartSpan(ctx, "wal.commit")
	cs.SetUint("seq", seq)
	if err == nil {
		err = wait()
	}
	cs.End(err)
	if err != nil {
		return fmt.Errorf("core: logging %c entry of %s: %w", e.kind, e.id, err)
	}
	return v.apply(ctx, e, rec)
}

// stage writes e, encoded as parts, to meta.wal to be made durable,
// recording its size and sequence number on its wal.enqueue span es, and
// gives e (and a version its Ref) its place there.
func (v *Vault) stage(es *obs.Span, e *walEntry, parts [][]byte, durable func()) (uint64, func() error, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	es.SetUint("bytes", uint64(n))
	seq, off, wait, err := v.metaWAL.Enqueue(wal.Durable, durable, parts...)
	es.SetUint("seq", seq)
	e.at = blockstore.Ref{Segment: walSegment, Offset: uint64(off)}
	if e.kind == 'V' {
		e.ver.Ref = e.at
	}
	return seq, wait, err
}

// appendLeaf commits e's version to the Merkle log and records where.
func (v *Vault) appendLeaf(ctx context.Context, e *walEntry) {
	_, sp := obs.StartSpan(ctx, "merkle.append")
	e.ver.LeafIndex = v.log.Append(leafData(e.id, e.ver.Number, e.ver.CtHash))
	sp.SetUint("leaf", e.ver.LeafIndex)
	sp.End(nil)
}

// replay applies one logged entry during recovery. A version whose
// ciphertext the entry carries is found there until the next checkpoint.
func (v *Vault) replay(we wal.Entry) error {
	e, err := decodeWALEntry(we.Data)
	if err != nil {
		return err
	}
	if e.event != nil {
		// The audit event goes first: an entry whose event fails its tag
		// applies nothing.
		if err := v.aud.Resume(we.Off, e.auditHost(), e.event); err != nil {
			return fmt.Errorf("%w: the audit event in meta.wal at %d: %w", ErrTampered, we.Off, err)
		}
		if e.kind == 'A' {
			return nil
		}
	}
	e.at = blockstore.Ref{Segment: walSegment, Offset: uint64(we.Off)}
	if e.ct != nil {
		e.ver.Ref = e.at
	}
	if e.kind == 'V' {
		// A crash between the snapshot rename and the WAL checkpoint leaves
		// entries the snapshot already covers. Skip such a version, but only
		// if it is the same one — else the log and snapshot diverged.
		if st, ok := v.lookup(e.id); ok && e.ver.Number >= 1 && e.ver.Number <= st.count() {
			if st.at(e.ver.Number).ctHash != e.ver.CtHash {
				return fmt.Errorf("core: WAL replay conflicts with snapshot: %s version %d", e.id, e.ver.Number)
			}
			// Its custody event is on the medium, which checkpoint writes
			// first, unless a parent's Close kept the entry for an event it
			// owed.
			return v.custody(&e)
		}
		v.appendLeaf(context.Background(), &e)
	}
	return v.apply(context.Background(), &e, nil)
}

// apply is the state transition of one entry: the only code that changes the
// registry, a version list, the key store, retention tracking and holds, the
// index, the block cache, the live-records gauge and a custody chain on an
// entry's behalf. rec is the version's plaintext when the caller holds it
// (live); nil (replay) decrypts the ciphertext the entry or, for a legacy
// entry, the block store holds. The record's DEK becomes registered here, from
// the blob the entry carries, so a key exists exactly when the version that
// introduced it is committed; and the record with the category, MRN and
// created time of its sealed version 1, so what authorization trusts is what
// the seal authenticated.
func (v *Vault) apply(ctx context.Context, e *walEntry, rec *ehr.Record) error {
	st, known := v.lookup(e.id)
	switch {
	case e.kind == 'V':
		create := e.ver.Number == 1 && !known
		if !create && (!known || e.ver.Number != st.count()+1) {
			return fmt.Errorf("core: version %d does not extend record %s", e.ver.Number, e.id)
		}
		if create {
			if err := v.keys.AdoptWrapped(e.id, e.wrappedDEK); err != nil {
				return fmt.Errorf("core: registering DEK of %s: %w", e.id, err)
			}
		}
		if rec == nil {
			// Not through the block cache: recovery must not fill it.
			ct := e.ct
			if ct == nil {
				var err error
				if ct, _, err = v.ciphertext(e.ver.Ref); err != nil {
					return fmt.Errorf("core: replaying ciphertext of %s: %w", e.id, err)
				}
			}
			r, err := v.openVersion(ctx, e.id, st, e.ver, ct)
			if err != nil {
				return fmt.Errorf("core: replaying %s: %w", e.id, err)
			}
			rec = &r
		}
		if create {
			if err := v.register(e.id, &recordState{
				mrn: v.names.Intern(rec.MRN), created: rec.CreatedAt.UnixNano(), first: v.compact(e.ver),
				category: v.names.Intern(string(rec.Category)),
			}); err != nil {
				return err
			}
		} else {
			st.more = append(st.more, v.compact(e.ver))
		}
		v.inline.Add(int64(len(e.ct))) // nil from a legacy entry
		_, sp := obs.StartSpan(ctx, "index.add")
		v.idx.Add(e.id, rec.SearchText())
		sp.End(nil)
	case known && st.shredded.Load():
		// Replay over a snapshot that already covers the record's shred.
	case e.kind == 'S':
		if !known {
			return fmt.Errorf("core: shred of unknown record %s", e.id)
		}
		if err := v.keys.Shred(e.id); err != nil {
			return fmt.Errorf("core: shredding key of %s: %w", e.id, err)
		}
		// keys.Shred zeroized the cached plaintext DEK; drop the cached
		// ciphertext blocks too, so shredded bytes leave memory now rather
		// than at the LRU's leisure.
		refs := make([]blockstore.Ref, st.count())
		for i := range refs {
			refs[i] = st.at(uint64(i) + 1).ref()
		}
		v.bcache.invalidate(refs)
		_, sp := obs.StartSpan(ctx, "index.remove")
		v.idx.Remove(e.id)
		sp.End(nil)
		v.ret.Forget(e.id)
		st.shredded.Store(true)
		metLiveRecords.Add(-1)
	case e.kind == 'H':
		return v.ret.PlaceHoldAt(e.id, e.reason, e.placed)
	case e.kind == 'R':
		v.ret.ReleaseHold(e.id)
	}
	return v.custody(e)
}

// custody chains the custody event e carries, if any, stamped with the
// version's or the shred's time, onto its record's chain in RAM: the entry
// holds the event until checkpoint writes it (Tracker.Pend), so apply writes
// nothing and cannot fail the committed operation. Replay skips an event a
// checkpoint or a backup wrote before the cut (Tracker.Complete).
func (v *Vault) custody(e *walEntry) error {
	if !e.custody {
		return nil
	}
	typ := custodyType(e.ver.Number)
	if v.replaying {
		return v.prov.Complete(e.at, e.id, typ, e.ver.Author, e.ver.CtHash, e.ver.Timestamp)
	}
	v.prov.Pend(e.at, e.id, typ, e.ver.Author, e.ver.CtHash, e.ver.Timestamp)
	return nil
}

// scanAudit reads the audit events of the meta.wal entries from the one at
// off on, in one pass (audit.Tail.Scan).
func (v *Vault) scanAudit(off int64, fn func(off int64, host *audit.Event, data []byte) error) error {
	return v.metaWAL.Scan(off, func(off int64, data []byte) error {
		e, err := parseWALEntry(data)
		if err != nil || e.event == nil {
			return err
		}
		return fn(off, e.auditHost(), e.event)
	})
}

// enqueueAudit writes a standalone audit event's entry to meta.wal
// (audit.Tail.Enqueue): an operation that changed nothing does not wait for
// an fsync, and a mutation's durable entry follows its events.
func (v *Vault) enqueueAudit(entry []byte) (int64, error) {
	_, off, _, err := v.metaWAL.Enqueue(wal.Written, nil, entry)
	return off, err
}

// pendingCustody reads back the custody event pending in the meta.wal entry
// at ref (provenance.Config.Pending).
func (v *Vault) pendingCustody(ref blockstore.Ref) (provenance.Event, error) {
	data, err := v.metaWAL.ReadAt(int64(ref.Offset))
	if err != nil {
		return provenance.Event{}, err
	}
	e, err := decodeWALEntry(data)
	if err == nil && !e.custody {
		err = fmt.Errorf("%w: meta.wal entry at %d carries no custody event", ErrCorrupt, ref.Offset)
	}
	return provenance.Event{Record: e.id, Type: custodyType(e.ver.Number), Actor: e.ver.Author,
		Timestamp: e.ver.Timestamp, ContentHash: e.ver.CtHash}, err
}

// custodyType is a mutation's custody event by version number: a shred's
// (version 0, the zero hash) shredded, version 1's created, a later one's corrected.
func custodyType(number uint64) provenance.EventType {
	return [...]provenance.EventType{provenance.EventShredded, provenance.EventCreated, provenance.EventCorrected}[min(number, 2)]
}

// register publishes a new record under id and starts its retention clock:
// apply's step for a record's first version, and recovery's for each record
// a snapshot holds. Retention is keyed by the table's copy of id, so the
// caller's string is not kept.
func (v *Vault) register(id string, st *recordState) error {
	n := v.recs.Intern(id)
	if !st.shredded.Load() {
		if err := v.ret.Track(v.recs.ID(n), string(v.category(st)), time.Unix(0, st.created)); err != nil {
			return fmt.Errorf("core: tracking retention of %s: %w", id, err)
		}
	}
	v.regMu.Lock()
	v.records = recno.Grow(v.records, n)
	v.records[n] = st
	v.regMu.Unlock()
	if !st.shredded.Load() {
		metLiveRecords.Add(1)
	}
	return nil
}
