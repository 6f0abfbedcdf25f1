package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"medvault/internal/authz"
	"medvault/internal/blockstore"
	"medvault/internal/ehr"
	"medvault/internal/obs"
	"medvault/internal/stores"
	"medvault/internal/wal"
)

// Adapter presents the vault through the stores.Store interface so the
// experiment harness can compare it head-to-head with the Section-4
// baselines. It runs every operation as a single fully privileged principal
// ("bench-admin") — the baselines have no access control, so giving the
// vault an always-authorized actor keeps the comparison about the storage
// models, with the vault still paying its own authorization and audit costs
// on every call.
type Adapter struct {
	v     *Cluster
	actor string
}

var (
	_ stores.Store      = (*Adapter)(nil)
	_ stores.Tamperable = (*Adapter)(nil)
)

// NewAdapter wraps v, registering a fully privileged bench principal.
func NewAdapter(v *Cluster) (*Adapter, error) {
	const actor = "bench-admin"
	a := v.Authz()
	a.DefineRole(authz.NewRole("bench-all-access", []authz.Action{
		authz.ActRead, authz.ActWrite, authz.ActCorrect, authz.ActSearch,
		authz.ActShred, authz.ActMigrate, authz.ActBackup, authz.ActAudit,
	}))
	if err := a.AddPrincipal(actor, "bench-all-access"); err != nil {
		return nil, err
	}
	return &Adapter{v: v, actor: actor}, nil
}

// Name implements stores.Store.
func (a *Adapter) Name() string { return "medvault" }

// trace wraps one bench operation in a trace on the process tracer, so
// experiment and scaling runs populate the same per-span histograms and
// /debug/traces ring the HTTP server does. The trace machinery is part of
// the measured pipeline by design: medvaultd pays it on every request, so
// the bench must too.
func trace(op string, fn func(ctx context.Context) error) error {
	ctx, tr := obs.DefaultTracer.Start(context.Background(), op, "")
	err := fn(ctx)
	obs.DefaultTracer.Finish(tr, err)
	return err
}

// Put implements stores.Store.
func (a *Adapter) Put(rec ehr.Record) error {
	return mapErr(trace("put", func(ctx context.Context) error {
		_, err := a.v.PutCtx(ctx, a.actor, rec)
		return err
	}))
}

// Get implements stores.Store.
func (a *Adapter) Get(id string) (ehr.Record, error) {
	var rec ehr.Record
	err := trace("get", func(ctx context.Context) error {
		var err error
		rec, _, err = a.v.GetCtx(ctx, a.actor, id)
		return err
	})
	return rec, mapErr(err)
}

// Correct implements stores.Store.
func (a *Adapter) Correct(rec ehr.Record) error {
	return mapErr(trace("correct", func(ctx context.Context) error {
		_, err := a.v.CorrectCtx(ctx, a.actor, rec)
		return err
	}))
}

// Search implements stores.Store.
func (a *Adapter) Search(keyword string) ([]string, error) {
	var out []string
	err := trace("search", func(ctx context.Context) error {
		var err error
		out, err = a.v.SearchCtx(ctx, a.actor, keyword)
		return err
	})
	return out, err
}

// Dispose implements stores.Store.
func (a *Adapter) Dispose(id string) error {
	return mapErr(trace("shred", func(ctx context.Context) error {
		return a.v.ShredCtx(ctx, a.actor, id)
	}))
}

// Verify implements stores.Store.
func (a *Adapter) Verify() error {
	if _, err := a.v.VerifyAll(nil, nil); err != nil {
		return fmt.Errorf("%w: %v", stores.ErrTampered, err)
	}
	return nil
}

// Len implements stores.Store.
func (a *Adapter) Len() int { return a.v.Len() }

// StorageBytes implements stores.Store.
func (a *Adapter) StorageBytes() int64 { return a.v.StorageBytes() }

// RawBytes implements stores.Store: the ciphertext log, meta.wal (which
// holds the ciphertext written since the last checkpoint) and the SSE
// index's stored form — the at-rest attack surface, concatenated over shards
// in shard order.
func (a *Adapter) RawBytes() []byte {
	var out []byte
	for _, v := range a.v.shards {
		raw, err := v.blocks.ReadRaw()
		if err != nil {
			return nil
		}
		out = append(out, raw...)
		if wal, err := v.fs.ReadFile(filepath.Join(v.dir, "meta.wal")); err == nil {
			out = append(out, wal...)
		}
		if snap, err := v.idx.Snapshot(); err == nil {
			out = append(out, snap...)
		}
	}
	return out
}

// TamperRecord implements stores.Tamperable: a format-aware insider
// rewrites the latest version's ciphertext in place with a valid CRC, on the
// record's own shard — in its block, or in its meta.wal entry.
func (a *Adapter) TamperRecord(id string, mutate func([]byte) []byte) error {
	v := a.v.shardFor(id)
	mu := v.stripes.forRecord(id)
	mu.RLock()
	st, err := v.stateFor(id)
	var ref blockstore.Ref
	if err == nil {
		ref = st.at(st.count()).ref()
	}
	mu.RUnlock()
	if err != nil {
		return mapErr(err)
	}
	if ref.Segment != walSegment {
		return v.blocks.CorruptFrame(ref, mutate)
	}
	var derr error
	err = wal.CorruptEntry(v.fs, filepath.Join(v.dir, "meta.wal"), int64(ref.Offset), func(data []byte) []byte {
		e, err := decodeWALEntry(data)
		if derr = err; err != nil {
			return data
		}
		e.ct = mutate(e.ct)
		return e.encode()
	})
	return errors.Join(derr, err)
}

// RollbackMetadata models the insider who edits the vault's metadata to
// hide the latest correction (truncating the version list). VerifyAll must
// catch it via the commitment-log size check.
func (a *Adapter) RollbackMetadata(id string) error {
	v := a.v.shardFor(id)
	mu := v.stripes.forRecord(id)
	mu.Lock()
	defer mu.Unlock()
	st, ok := v.lookup(id)
	if !ok || st.count() < 2 {
		return fmt.Errorf("%w: %s has no correction to hide", stores.ErrNotFound, id)
	}
	st.more = st.more[:len(st.more)-1]
	return nil
}

// storesErrs are the stores package's counterparts of core's outcome labels,
// where one exists.
var storesErrs = map[string]error{
	"exists":    stores.ErrExists,
	"not_found": stores.ErrNotFound,
	"tampered":  stores.ErrTampered,
}

// mapErr translates a core outcome to the stores package's vocabulary where a
// direct counterpart exists, so the harness can switch on one error set.
func mapErr(err error) error {
	if se, ok := storesErrs[Outcome(err)]; ok {
		return fmt.Errorf("%w: %v", se, err)
	}
	return err
}
