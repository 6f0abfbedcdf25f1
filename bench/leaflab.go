package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/index"
	"medvault/internal/medclient"
	"medvault/internal/merkle"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/retention"
	"medvault/internal/vcrypto"
	"medvault/internal/wal"
)

// leafLab is depth (d) of the traced run: every leaf package on its own,
// wired to nothing, fed the same inputs the vault was fed. What the vault's
// own calls cost beyond the sum of these is the "unattributed" row.
type leafLab struct {
	rec    *spanRecorder
	fs     *countFS
	auth   *authz.Authorizer
	ret    *retention.Manager
	keys   *vcrypto.KeyStore
	signer *vcrypto.Signer
	blocks *blockstore.File
	wal    *wal.Log
	log    *merkle.Log
	idx    *index.SSE
	aud    *audit.Log
	prov   *provenance.Tracker
	stores []*blockstore.File

	// Per record ID: where each version's ciphertext and Merkle leaf went.
	refs   map[string][]blockstore.Ref
	leaves map[string][]uint64

	plainBytes int64 // encoded record bytes handed to the block store
	// Index searches made and IDs they returned, for results_per_search.
	searches, searchResults int
}

func toEHR(r *medclient.Record) ehr.Record {
	return ehr.Record{
		ID: r.ID, Patient: r.Patient, MRN: r.MRN, Category: ehr.Category(r.Category),
		Author: r.Author, CreatedAt: r.CreatedAt, Title: r.Title, Body: r.Body, Codes: r.Codes,
	}
}

func newLeafLab(dir string, rec *spanRecorder, dekCap int) (*leafLab, error) {
	master, err := vcrypto.NewKey()
	if err != nil {
		return nil, err
	}
	now := func() time.Time { return time.Now().UTC() }
	l := &leafLab{
		rec:    rec,
		fs:     newCountFS(),
		auth:   authz.New(now),
		ret:    retention.NewManager(clock.System{}),
		keys:   vcrypto.NewKeyStoreCached(vcrypto.DeriveKey(master, "kek"), dekCap),
		signer: vcrypto.SignerFromSeed(vcrypto.DeriveKey(master, "signer")),
		idx:    index.NewSSE(vcrypto.DeriveKey(master, "index")),
		refs:   map[string][]blockstore.Ref{},
		leaves: map[string][]uint64{},
	}
	for _, r := range authz.StandardRoles() {
		l.auth.DefineRole(r)
	}
	for c := 0; c < maxConns; c++ {
		for principal, role := range map[string]string{
			physician(c): "physician", clerk(c): "billing-clerk", officer(c): "compliance-officer", responder(c): "billing-clerk",
		} {
			if err := l.auth.AddPrincipal(principal, role); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range retention.StandardPolicies() {
		l.ret.SetPolicy(p)
	}
	open := func(name string) (*blockstore.File, error) {
		f, err := blockstore.OpenFileFS(l.fs, filepath.Join(dir, name), 0)
		if err == nil {
			l.stores = append(l.stores, f)
		}
		return f, err
	}
	if l.blocks, err = open("blocks"); err != nil {
		return nil, err
	}
	auditStore, err := open("audit")
	if err != nil {
		return nil, err
	}
	provStore, err := open("prov")
	if err != nil {
		return nil, err
	}
	if l.aud, err = audit.Open(audit.Config{Store: auditStore, MACKey: vcrypto.DeriveKey(master, "mac"), Signer: l.signer, Now: now, CheckpointInterval: 1000}); err != nil {
		return nil, err
	}
	if l.prov, err = provenance.Open(provenance.Config{Store: provStore, Signer: l.signer, System: "bench", Now: now}); err != nil {
		return nil, err
	}
	if l.wal, err = wal.OpenFS(l.fs, filepath.Join(dir, "meta.wal"), nil); err != nil {
		return nil, err
	}
	l.log = merkle.NewLog(l.signer, now)
	return l, nil
}

func (l *leafLab) close() {
	l.wal.Close()
	for _, s := range l.stores {
		s.Close()
	}
}

// walEntry stands in for the vault's version-append WAL entry, whose
// encoder is private to core: same fields, same sizes.
func walEntry(r *ehr.Record, ctHash [32]byte, wrapped []byte) []byte {
	b := make([]byte, 0, 160+len(wrapped))
	b = append(b, 'V')
	b = append(b, r.ID...)
	b = append(b, r.Category...)
	b = append(b, r.MRN...)
	b = append(b, r.Author...)
	b = append(b, make([]byte, 8+4+8+8+8+6*4)...)
	b = append(b, ctHash[:]...)
	return append(b, wrapped...)
}

// put is the leaf sequence behind a create (first == true) or a correction.
// durable says whether to pay the two flushes; the lab's own preload skips
// them, as they would only warm the disk.
func (l *leafLab) put(op int, parent, actor string, p *medclient.Record, first, durable bool) error {
	s := func(name string, fn func()) { l.rec.time(op, "d:"+name, parent, fn) }
	r := toEHR(p)
	action, auditAct, custody := authz.ActWrite, audit.ActionCreate, provenance.EventCreated
	if !first {
		action, auditAct, custody = authz.ActCorrect, audit.ActionCorrect, provenance.EventCorrected
	}
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	s("authz.check", func() { l.auth.Check(actor, action, p.Category) })
	s("audit.append", func() {
		_, e := l.aud.Append(audit.Event{Actor: actor, Action: auditAct, Record: r.ID, Outcome: audit.OutcomeAllowed})
		fail(e)
	})
	var dek vcrypto.Key
	var wrapped []byte
	if first {
		s("retention.track", func() { fail(l.ret.Track(r.ID, p.Category, r.CreatedAt)) })
		s("keystore.create", func() {
			var e error
			dek, e = l.keys.Create(r.ID)
			fail(e)
			wrapped, e = l.keys.WrappedFor(r.ID)
			fail(e)
		})
	} else {
		s("keystore.get", func() {
			var e error
			dek, e = l.keys.Get(r.ID)
			fail(e)
		})
	}
	if err != nil {
		return err
	}
	version := len(l.refs[r.ID]) + 1
	var pt, ct []byte
	s("ehr.encode", func() { pt = ehr.Encode(r) })
	s("vcrypto.seal", func() {
		var e error
		ct, e = vcrypto.Seal(dek, pt, []byte(fmt.Sprintf("%s/v%d", r.ID, version)))
		fail(e)
	})
	var ref blockstore.Ref
	s("blockstore.append", func() {
		var e error
		ref, e = l.blocks.Append(ct)
		fail(e)
	})
	ctHash := vcrypto.Hash(ct)
	if durable {
		s("blockstore.sync", func() { fail(l.blocks.Sync()) })
		entry := walEntry(&r, ctHash, wrapped)
		s("wal.append", func() {
			_, e := l.wal.Append(entry)
			fail(e)
		})
	}
	var leaf uint64
	s("merkle.append", func() { leaf = l.log.Append(append([]byte(r.ID), ctHash[:]...)) })
	s("index.add", func() { l.idx.Add(r.ID, r.SearchText()) })
	s("provenance.record", func() {
		_, e := l.prov.Record(r.ID, custody, actor, ctHash, "")
		fail(e)
	})
	l.refs[r.ID] = append(l.refs[r.ID], ref)
	l.leaves[r.ID] = append(l.leaves[r.ID], leaf)
	l.plainBytes += int64(len(pt))
	return err
}

// read is the leaf sequence behind a get of one version. readBlock says
// whether the vault went to the block store for it (a block-cache miss).
func (l *leafLab) read(op int, parent, actor, id, category string, version int, readBlock bool) error {
	s := func(name string, fn func()) { l.rec.time(op, "d:"+name, parent, fn) }
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	s("authz.check", func() { l.auth.Check(actor, authz.ActRead, category) })
	s("audit.append", func() {
		_, e := l.aud.Append(audit.Event{Actor: actor, Action: audit.ActionRead, Record: id, Version: uint64(version), Outcome: audit.OutcomeAllowed})
		fail(e)
	})
	refs := l.refs[id]
	if version < 1 || version > len(refs) {
		return fmt.Errorf("leaf lab holds no %s v%d", id, version)
	}
	// The lab has no block cache, so it always needs the bytes; the read is
	// only recorded as a span of this op when the vault paid for one too.
	var ct []byte
	readFn := func() {
		var e error
		ct, e = l.blocks.Read(refs[version-1])
		fail(e)
	}
	if readBlock {
		s("blockstore.read", readFn)
	} else {
		readFn()
	}
	var dek vcrypto.Key
	name := "keystore.get_miss"
	if l.keys.HasCachedDEK(id) {
		name = "keystore.get_hit"
	}
	s(name, func() {
		var e error
		dek, e = l.keys.Get(id)
		fail(e)
	})
	if err != nil {
		return err
	}
	var pt []byte
	s("vcrypto.open", func() {
		var e error
		pt, e = vcrypto.Open(dek, ct, []byte(fmt.Sprintf("%s/v%d", id, version)))
		fail(e)
	})
	if err != nil {
		return err
	}
	s("ehr.decode", func() {
		_, e := ehr.Decode(pt)
		fail(e)
	})
	return err
}

// decide is the authorize-and-audit pair every remaining op starts with.
func (l *leafLab) decide(op int, parent, actor string, act authz.Action, auditAct audit.Action, id, category string, outcome audit.Outcome) error {
	var err error
	l.rec.time(op, "d:authz.check", parent, func() { l.auth.Check(actor, act, category) })
	l.rec.time(op, "d:audit.append", parent, func() {
		_, err = l.aud.Append(audit.Event{Actor: actor, Action: auditAct, Record: id, Outcome: outcome})
	})
	return err
}

// replay runs the leaf calls op i decomposes into. fsDelta is what the
// vault's own depth-(c) execution of the op did at the device.
func (l *leafLab) replay(i int, parent string, o *op, recs []record, owner int, fsDelta fsCounts) error {
	var rec *record
	if o.rec >= 0 {
		rec = &recs[o.rec]
	}
	dr := physician(owner)
	switch o.kind {
	case kCreate:
		return l.put(i, parent, dr, o.payload, true, true)
	case kCorrect:
		return l.put(i, parent, dr, o.payload, false, true)
	case kGet, kGetBreakGlass:
		return l.read(i, parent, dr, rec.id, rec.latest.Category, len(l.refs[rec.id]), fsDelta.reads > 0)
	case kGetVersion:
		return l.read(i, parent, dr, rec.id, rec.latest.Category, int(o.ver), fsDelta.reads > 0)
	case kHistory:
		return l.decide(i, parent, dr, authz.ActRead, audit.ActionRead, rec.id, rec.latest.Category, audit.OutcomeAllowed)
	case kGetAbsent:
		var err error
		l.rec.time(i, "d:audit.append", parent, func() {
			_, err = l.aud.Append(audit.Event{Actor: dr, Action: audit.ActionRead, Record: absentID(owner, o.ver), Outcome: audit.OutcomeError})
		})
		return err
	case kGetDenied:
		return l.decide(i, parent, clerk(owner), authz.ActRead, audit.ActionRead, rec.id, rec.latest.Category, audit.OutcomeDenied)
	case kSearchCommon, kSearchRare:
		if err := l.decide(i, parent, dr, authz.ActSearch, audit.ActionSearch, "", "", audit.OutcomeAllowed); err != nil {
			return err
		}
		name, term := "index.search_common", commonTerm
		if o.kind == kSearchRare {
			name, term = "index.search_rare", rareTerm
		}
		l.rec.time(i, "d:"+name, parent, func() { l.searchResults += len(l.idx.Search(term)) })
		l.searches++
		return nil
	case kPatientRecords:
		l.rec.time(i, "d:authz.check", parent, func() { l.auth.Check(dr, authz.ActRead, rec.latest.Category) })
		return nil
	case kAuditRecord, kAuditActor, kAuditDenied, kDisclosures:
		if err := l.decide(i, parent, officer(owner), authz.ActAudit, audit.ActionVerify, "", "", audit.OutcomeAllowed); err != nil {
			return err
		}
		q := audit.Query{}
		switch o.kind {
		case kAuditRecord:
			q.Record = rec.id
		case kAuditActor:
			q.Actor = clerk(owner)
		case kAuditDenied:
			q.DeniedOnly = true
		}
		l.rec.time(i, "d:audit.search", parent, func() { l.aud.Search(q) })
		return nil
	case kProof:
		if err := l.decide(i, parent, dr, authz.ActRead, audit.ActionVerify, rec.id, rec.latest.Category, audit.OutcomeAllowed); err != nil {
			return err
		}
		leaves := l.leaves[rec.id]
		if int(o.ver) > len(leaves) {
			return fmt.Errorf("leaf lab holds no %s v%d", rec.id, o.ver)
		}
		var err error
		l.rec.time(i, "d:merkle.prove", parent, func() { _, _, err = l.log.ProveInclusion(leaves[o.ver-1]) })
		l.rec.time(i, "d:merkle.head", parent, func() { l.log.Head() })
		return err
	}
	return fmt.Errorf("unplanned op kind %d", o.kind)
}

// --- probes: one number each, measured on their own ---

// nsPerCall times fn in batches (a single call is shorter than the clock
// can resolve) and returns the median batch mean in nanoseconds.
func nsPerCall(fn func()) metric {
	const batches, per = 41, 64
	xs := make([]float64, batches)
	for b := range xs {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		xs[b] = float64(time.Since(t0).Nanoseconds()) / per
	}
	return metric{Value: median(xs), Unit: "ns", N: batches * per}
}

// usOf times n single calls and returns their median in microseconds.
func usOf(n int, fn func(i int)) metric {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		fn(i)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return metric{Value: median(xs), Unit: "us", N: n}
}

// hostProbes measures the floor the host puts under every other number:
// what a flush, a loopback round trip and a hash cost here.
func hostProbes(ly map[string]metric, dir string) error {
	f, err := os.OpenFile(filepath.Join(dir, "fsync-probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 512)
	ly["host.fsync_probe_us"] = usOf(200, func(int) {
		if _, e := f.Write(block); e != nil {
			err = e
		}
		if e := f.Sync(); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // echo until the client hangs up
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	msg := make([]byte, 64)
	ly["host.loopback_echo_us"] = usOf(2000, func(int) {
		if _, e := conn.Write(msg); e != nil {
			err = e
		}
		if _, e := conn.Read(msg); e != nil {
			err = e
		}
	})
	conn.Close()
	wg.Wait()
	if err != nil {
		return err
	}

	mib := make([]byte, 1<<20)
	m := usOf(64, func(int) { sha256.Sum256(mib) })
	ly["host.sha256_mb_s"] = metric{Value: 1e6 / m.Value, Unit: "MiB/s", N: m.N}
	return nil
}

// obsProbes prices the three things a completed request hands the
// observability planes, each on a private instance.
func obsProbes(ly map[string]metric) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	ly["obs.trace_start_finish_ns"] = nsPerCall(func() {
		_, tr := tracer.Start(context.Background(), "GET /records/{id}", "")
		tracer.Finish(tr, nil)
	})
	reg := obs.NewRegistry()
	ly["obs.histogram_observe_ns"] = nsPerCall(func() {
		reg.Histogram("bench_seconds", "probe", obs.LatencyBuckets, obs.L("route", "GET /records/{id}")).Observe(0.0003)
	})
	flight := obs.NewFlight(4096)
	ly["obs.flight_record_ns"] = nsPerCall(func() {
		flight.Record(obs.FlightEvent{Kind: "get", Record: "0123456789ab", Outcome: "ok", Dur: 300 * time.Microsecond})
	})
}

// nsProbes prices the calls too short for a span to time: each in batches,
// on one representative record.
func (l *leafLab) nsProbes(ly map[string]metric, sample *medclient.Record) {
	r := toEHR(sample)
	pt := ehr.Encode(r)
	ly["authz.check_ns"] = nsPerCall(func() { l.auth.Check(r.Author, authz.ActRead, sample.Category) })
	ly["ehr.encode_ns"] = nsPerCall(func() { ehr.Encode(r) })
	ly["ehr.decode_ns"] = nsPerCall(func() { ehr.Decode(pt) })                                       //nolint:errcheck // pt was just encoded
	ly["retention.track_ns"] = nsPerCall(func() { l.ret.Track(r.ID, sample.Category, r.CreatedAt) }) //nolint:errcheck // the category has a policy
	l.keys.Get(r.ID)                                                                                 //nolint:errcheck // warms the DEK cache for the hit probe
	ly["vcrypto.keystore_get_hit_ns"] = nsPerCall(func() { l.keys.Get(r.ID) })                       //nolint:errcheck // preloaded key
}

// walProbes measures the WAL alone: one caller, then two, then a checkpoint.
func (l *leafLab) walProbes(ly map[string]metric) error {
	entry := make([]byte, 220)
	var err error
	errs := make([]error, 2)
	ly["wal.append_us"] = usOf(200, func(int) {
		if _, e := l.wal.Append(entry); e != nil {
			err = e
		}
	})
	before := l.fs.read()
	const callers, each = 2, 200
	lat := make([][]float64, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				t0 := time.Now()
				if _, e := l.wal.Append(entry); e != nil {
					errs[c] = e
				}
				lat[c] = append(lat[c], float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(append(errs, err)...); err != nil {
		return err
	}
	d := l.fs.read().sub(before)
	ly["wal.append2_us"] = metric{Value: median(append(lat[0], lat[1]...)), Unit: "us", N: callers * each}
	ly["wal.appends_per_fsync"] = metric{Value: float64(callers*each) / float64(max(d.syncs, 1)), Unit: "count", N: int(d.syncs)}
	t0 := time.Now()
	if err := l.wal.Checkpoint(); err != nil {
		return err
	}
	ly["wal.checkpoint_ms"] = metric{Value: float64(time.Since(t0).Nanoseconds()) / 1e6, Unit: "ms", N: 1}
	return nil
}

// auditSearchAt100k builds a 100,000-event log in memory and times a
// by-record query over it: the cost an audit query reaches once a vault has
// served that many requests.
func (l *leafLab) auditSearchAt100k(ly map[string]metric) error {
	log, err := audit.Open(audit.Config{Store: blockstore.NewMemory(0), MACKey: vcrypto.DeriveKey(vcrypto.Key{}, "probe"), Signer: l.signer})
	if err != nil {
		return err
	}
	for i := 0; i < 100_000; i++ {
		if _, err := log.Append(audit.Event{Actor: "dr-0", Action: audit.ActionRead, Record: fmt.Sprintf("w0-mrn-%06d-enc-0", i%3000), Outcome: audit.OutcomeAllowed}); err != nil {
			return err
		}
	}
	m := usOf(15, func(i int) { log.Search(audit.Query{Record: fmt.Sprintf("w0-mrn-%06d-enc-0", i)}) })
	ly["audit.search_ms_at_100k"] = metric{Value: m.Value / 1e3, Unit: "ms", N: m.N}
	return nil
}
