package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"medvault/internal/audit"
	"medvault/internal/core"
	"medvault/internal/httpapi"
	"medvault/internal/medclient"
	"medvault/internal/obs"
	"medvault/internal/vaultcfg"
	"medvault/internal/vcrypto"
)

// span is one timed call into a public function. Depth is in the name's
// prefix: "a:" medclient over loopback, "b:" httpapi.Server.ServeHTTP,
// "c:" core.Cluster, "d:" a leaf package on its own. The depths of one op
// are executed one after another on the same inputs, not nested, so Parent
// says which span a nested execution would have been inside.
type span struct {
	Op     int    `json:"op_id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps every span in memory until the run ends.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func (r *spanRecorder) time(op int, name, parent string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent,
		Start: t0.Sub(r.epoch).Nanoseconds(), End: t1.Sub(r.epoch).Nanoseconds()})
	return t1.Sub(t0)
}

// The traced replay plays a stream of the workload's own mix, planned from
// the same seed: traceOpsPerSecond×seconds ops, at most tracedOpsMax.
const (
	traceOpsPerSecond = 100
	tracedOpsMax      = 3000
	// supplementPerKind ops of every kind follow the stream, so that each
	// per-layer metric has samples on every workload whatever its mix.
	supplementPerKind = 24
)

var depthNames = [3]string{"a", "b", "c"}

// tracedOp is what the replay learned about one op.
type tracedOp struct {
	kind    kind
	a, b, c time.Duration
	leaves  time.Duration // sum of the op's depth-(d) spans
	fs      fsCounts      // what depth (c) did at the device
	bodyLen int           // JSON bytes of the record a put sent
}

// runTraced produces the per-layer metrics: a shortened child-process run
// for the client-side tails and the program's own counters, then the
// in-process replay at four depths.
func (l *lab) runTraced(ctx context.Context, s spec, seed int64, seconds int, opt runOpts) (*runResult, error) {
	childOpt := opt
	childOpt.setups = 1
	res, err := l.runEndToEnd(ctx, s, seed, max(seconds/3, 1), childOpt)
	if err != nil {
		return nil, err
	}
	res.Seconds = seconds
	ly := res.Layers

	dir, err := l.newDataDir(opt.dataBase)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := hostProbes(ly, dir); err != nil {
		return nil, fmt.Errorf("host probes: %w", err)
	}
	obsProbes(ly)

	p := buildPlan(s, seed, min(traceOpsPerSecond*seconds, tracedOpsMax))
	p.planSupplement(supplementPerKind)
	ops, owners := p.replayOps()
	rec := &spanRecorder{epoch: time.Now()}
	r, err := newReplayer(ctx, p, dir, rec)
	if err != nil {
		return nil, err
	}
	defer r.close()
	auditBefore := r.vault.Shard(0).AuditCheckpoint().Seq
	traced, err := r.run(ctx, ops, owners)
	if err != nil {
		return nil, err
	}
	auditRows := r.vault.Shard(0).AuditCheckpoint().Seq - auditBefore
	res.Waterfall = layerMetrics(ly, traced, rec.spans, r.leaf, float64(auditRows)/float64(3*len(ops)))
	r.leaf.nsProbes(ly, p.preload[0].payload)
	if err := r.leaf.walProbes(ly); err != nil {
		return nil, fmt.Errorf("wal probes: %w", err)
	}
	if err := r.leaf.auditSearchAt100k(ly); err != nil {
		return nil, err
	}
	if err := r.cacheProbes(ctx, ly); err != nil {
		return nil, err
	}
	if err := r.reopenProbes(ly); err != nil {
		return nil, err
	}
	res.Attempted += 4 * len(ops)
	res.Failed += r.gate.failed
	res.Failures = append(res.Failures, r.gate.failures...)

	out := filepath.Join(l.outDir, fmt.Sprintf("trace-%s.json", s.name))
	b, err := json.Marshal(rec.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(rec.spans), out)
	return res, nil
}

// replayOps returns the timed ops in global issue order (op i of connection
// c was planned as the (i*conns+c)-th), followed by the supplement, with the
// connection each belongs to.
func (p *plan) replayOps() ([]op, []int) {
	var ops []op
	var owners []int
	for i := 0; i < len(p.timed[0]); i++ {
		for c, stream := range p.timed {
			if i < len(stream) {
				ops, owners = append(ops, stream[i]), append(owners, c)
			}
		}
	}
	for _, o := range p.supplement {
		ops, owners = append(ops, o), append(owners, 0)
	}
	return ops, owners
}

// request renders an op as the HTTP request depth (b) hands the handler.
func (o *op) request(recs []record, owner int) (method, path, actor string, body []byte, want int) {
	var rec *record
	if o.rec >= 0 {
		rec = &recs[o.rec]
	}
	method, actor, want = "GET", physician(owner), http.StatusOK
	switch o.kind {
	case kCreate:
		method, path, want = "POST", "/records", http.StatusCreated
	case kCorrect:
		method, path = "POST", "/records/"+rec.id+"/corrections"
	case kGet:
		path = "/records/" + rec.id
	case kGetBreakGlass:
		path, actor = "/records/"+rec.id, responder(owner)
	case kGetVersion:
		path = "/records/" + rec.id + "/versions/" + strconv.Itoa(int(o.ver))
	case kHistory:
		path = "/records/" + rec.id + "/history"
	case kGetAbsent:
		path, want = "/records/"+absentID(owner, o.ver), http.StatusNotFound
	case kGetDenied:
		path, actor, want = "/records/"+rec.id, clerk(owner), http.StatusForbidden
	case kSearchCommon:
		path = "/search?q=" + commonTerm
	case kSearchRare:
		path = "/search?q=" + rareTerm
	case kPatientRecords:
		path = "/patients/" + rec.mrn + "/records"
	case kAuditRecord:
		path, actor = "/audit?record="+url.QueryEscape(rec.id), officer(owner)
	case kAuditActor:
		path, actor = "/audit?actor="+clerk(owner), officer(owner)
	case kAuditDenied:
		path, actor = "/audit?denied=true", officer(owner)
	case kDisclosures:
		path, actor = "/patients/"+rec.mrn+"/disclosures", officer(owner)
	case kProof:
		path = "/records/" + rec.id + "/versions/" + strconv.Itoa(int(o.ver)) + "/proof"
	}
	if o.payload != nil {
		body, _ = json.Marshal(o.payload) // a Record of strings and a time always marshals
	}
	return method, path, actor, body, want
}

// coreCall runs an op as one core.Cluster call under a trace, the way
// core.Adapter does: medvaultd pays the tracer on every request, so depth
// (c) does too.
func coreCall(ctx context.Context, v *core.Cluster, o *op, recs []record, owner int) (err error) {
	var rec *record
	if o.rec >= 0 {
		rec = &recs[o.rec]
	}
	ctx, tr := obs.DefaultTracer.Start(ctx, "bench "+kindNames[o.kind], "")
	defer func() { obs.DefaultTracer.Finish(tr, err) }()
	dr := physician(owner)
	wantErr := func(err, want error) error {
		if errors.Is(err, want) {
			return nil
		}
		return fmt.Errorf("got %v, want %v", err, want)
	}
	switch o.kind {
	case kCreate:
		_, err = v.PutCtx(ctx, dr, toEHR(o.payload))
	case kCorrect:
		_, err = v.CorrectCtx(ctx, dr, toEHR(o.payload))
	case kGet:
		_, _, err = v.GetCtx(ctx, dr, rec.id)
	case kGetBreakGlass:
		_, _, err = v.GetCtx(ctx, responder(owner), rec.id)
	case kGetVersion:
		_, _, err = v.GetVersionCtx(ctx, dr, rec.id, uint64(o.ver))
	case kHistory:
		_, err = v.HistoryCtx(ctx, dr, rec.id)
	case kGetAbsent:
		_, _, err = v.GetCtx(ctx, dr, absentID(owner, o.ver))
		err = wantErr(err, core.ErrNotFound)
	case kGetDenied:
		_, _, err = v.GetCtx(ctx, clerk(owner), rec.id)
		err = wantErr(err, core.ErrDenied)
	case kSearchCommon:
		_, err = v.SearchCtx(ctx, dr, commonTerm)
	case kSearchRare:
		_, err = v.SearchCtx(ctx, dr, rareTerm)
	case kPatientRecords:
		_, err = v.PatientRecordsCtx(ctx, dr, rec.mrn)
	case kAuditRecord:
		_, err = v.AuditEventsCtx(ctx, officer(owner), audit.Query{Record: rec.id})
	case kAuditActor:
		_, err = v.AuditEventsCtx(ctx, officer(owner), audit.Query{Actor: clerk(owner)})
	case kAuditDenied:
		_, err = v.AuditEventsCtx(ctx, officer(owner), audit.Query{DeniedOnly: true})
	case kDisclosures:
		_, err = v.AccountingOfDisclosuresCtx(ctx, officer(owner), rec.mrn)
	case kProof:
		_, err = v.ProveVersionCtx(ctx, dr, rec.id, uint64(o.ver))
	default:
		err = fmt.Errorf("unplanned op kind %d", o.kind)
	}
	return err
}

// replayer is the in-process half of the traced run: one vault (its
// filesystem wrapped by a countFS, its caches at the workload's sizes)
// reachable at depths a, b and c, and one leaf lab for depth d.
type replayer struct {
	p       *plan
	gate    *gate
	rec     *spanRecorder
	master  vcrypto.Key
	opt     vaultcfg.Options
	dir     string // holds vault/, leaf/ and, later, the crash image
	vault   *core.Cluster
	cfs     *countFS
	leaf    *leafLab
	handler *httpapi.Server // depth (b)
	srv     *http.Server    // depth (a) is a real server around the handler
	served  chan struct{}
	da      *driver
	// Each depth writes its own copies of the records the stream creates (ID
	// suffixed with the depth); the preloaded ones are shared.
	views [3][]record
}

func newReplayer(ctx context.Context, p *plan, dir string, rec *spanRecorder) (_ *replayer, err error) {
	r := &replayer{p: p, gate: newGate(p), rec: rec, dir: dir, cfs: newCountFS()}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.master, err = vaultcfg.ParseMasterKey(masterKeyHex); err != nil {
		return nil, err
	}
	r.opt = vaultcfg.Options{FS: r.cfs, BlockCacheBytes: int64(p.spec.blockCacheMB) << 20}
	vaultDir := filepath.Join(dir, "vault")
	if err := os.MkdirAll(vaultDir, 0o700); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(vaultDir, vaultcfg.PrincipalsFile), []byte(principalsConf()), 0o600); err != nil {
		return nil, err
	}
	if r.vault, err = vaultcfg.OpenWith(vaultDir, "bench", r.master, r.opt); err != nil {
		return nil, err
	}
	if r.leaf, err = newLeafLab(filepath.Join(dir, "leaf"), rec, vcrypto.DefaultDEKCacheCap); err != nil {
		return nil, err
	}
	r.handler = httpapi.New(r.vault)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv, r.served = &http.Server{Handler: r.handler}, make(chan struct{})
	go func() {
		r.srv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Close
		close(r.served)
	}()
	for d := range r.views {
		r.views[d] = append([]record(nil), p.records...)
		for i := len(p.preload); i < len(r.views[d]); i++ {
			r.views[d][i].id += "-" + depthNames[d]
		}
	}
	r.da = newDriver(p, r.gate, "http://"+ln.Addr().String(), p.spec.conns)
	r.da.records, r.da.lenient = r.views[0], true
	return r, r.prepare(ctx)
}

func (r *replayer) close() {
	if r.da != nil {
		r.da.close()
	}
	if r.srv != nil {
		r.srv.Close()
		<-r.served
	}
	if r.leaf != nil {
		r.leaf.close()
	}
	if r.vault != nil {
		r.vault.Close()
	}
}

// at gives op o the record ID depth d uses for it.
func (r *replayer) at(o op, d int) op {
	if o.payload != nil {
		pc := *o.payload
		pc.ID = r.views[d][o.rec].id
		o.payload = &pc
	}
	return o
}

// prepare puts vault and leaf lab where the plan's timed stream expects
// them: preloaded, break-glass granted, each connection's warm-up played
// (once per depth's copy of the records). None of it is traced.
func (r *replayer) prepare(ctx context.Context) error {
	for i := range r.p.preload {
		o := &r.p.preload[i]
		dr := physician(r.p.records[o.rec].conn)
		if _, err := r.vault.PutCtx(ctx, dr, toEHR(o.payload)); err != nil {
			return fmt.Errorf("preloading the in-process vault: %w", err)
		}
		if err := r.leaf.put(-1, "", dr, o.payload, true, false); err != nil {
			return fmt.Errorf("preloading the leaf lab: %w", err)
		}
	}
	for c := 0; c < r.p.spec.conns; c++ {
		if err := r.vault.BreakGlassCtx(ctx, responder(c), "benchmark emergency access", 24*time.Hour); err != nil {
			return err
		}
	}
	for c, warm := range r.p.warm {
		for i := range warm {
			for d := range r.views {
				o := r.at(warm[i], d)
				if err := coreCall(ctx, r.vault, &o, r.views[d], c); err != nil {
					return fmt.Errorf("warm-up op %d: %w", i, err)
				}
			}
			o := r.at(warm[i], 2)
			if err := r.leaf.replay(-1, "", &o, r.views[2], c, fsCounts{reads: 1}); err != nil {
				return fmt.Errorf("leaf-lab warm-up op %d: %w", i, err)
			}
		}
	}
	r.rec.spans = r.rec.spans[:0]
	return nil
}

// run plays every op at depths a, b and c — in rotating order, so no depth
// always meets the coldest cache or the shortest audit log — and then as
// leaf calls on depth (c)'s inputs and with depth (c)'s cache luck.
func (r *replayer) run(ctx context.Context, ops []op, owners []int) ([]tracedOp, error) {
	traced := make([]tracedOp, len(ops))
	for i := range ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		owner, t := owners[i], &traced[i]
		t.kind = ops[i].kind
		kind := kindNames[t.kind]
		for turn := 0; turn < 3; turn++ {
			d := (i + turn) % 3
			o := r.at(ops[i], d)
			var err error
			switch d {
			case 0:
				t.a = r.rec.time(i, "a:"+kind, "", func() { _, err = r.da.do(ctx, owner, &o) })
			case 1:
				method, path, actor, body, want := o.request(r.views[d], owner)
				t.bodyLen = len(body)
				req, rerr := http.NewRequestWithContext(ctx, method, path, bytes.NewReader(body))
				if rerr != nil {
					return nil, rerr
				}
				req.Header.Set(medclient.ActorHeader, actor)
				if body != nil {
					req.Header.Set("Content-Type", "application/json")
				}
				rr := httptest.NewRecorder()
				t.b = r.rec.time(i, "b:"+kind, "a:"+kind, func() {
					r.handler.ServeHTTP(rr, req)
					io.Copy(io.Discard, rr.Body) //nolint:errcheck // draining a bytes.Buffer cannot fail
				})
				if rr.Code != want {
					err = fmt.Errorf("%s %s = %d, want %d", method, path, rr.Code, want)
				}
			case 2:
				before := r.cfs.read()
				t.c = r.rec.time(i, "c:"+kind, "b:"+kind, func() { err = coreCall(ctx, r.vault, &o, r.views[d], owner) })
				t.fs = r.cfs.read().sub(before)
			}
			if err != nil {
				r.gate.fail(fmt.Sprintf("traced op=%d depth=%s kind=%s", i, depthNames[d], kind), err)
			}
		}
		o := r.at(ops[i], 2)
		mark := len(r.rec.spans)
		if err := r.leaf.replay(i, "c:"+kind, &o, r.views[2], owner, t.fs); err != nil {
			r.gate.fail(fmt.Sprintf("traced op=%d depth=d kind=%s", i, kind), err)
		}
		for _, sp := range r.rec.spans[mark:] {
			t.leaves += time.Duration(sp.End - sp.Start)
		}
	}
	return traced, nil
}

// cacheProbes reads records the replay never touched, twice each: the first
// read of a record misses the block cache (and, past the DEK cache's
// capacity, the key cache), the second hits both. Unknown IDs likewise.
func (r *replayer) cacheProbes(ctx context.Context, ly map[string]metric) error {
	p, v, cfs := r.p, r.vault, r.cfs
	const n = 200
	first := len(p.preload) / 2 // mid-preload: past read_hot's hot set, before ingest's recent tail
	var miss, hit, absent []float64
	var err error
	for i := 0; i < n; i++ {
		r := &p.records[first+i]
		dr := physician(r.conn)
		for pass := 0; pass < 2; pass++ {
			before := cfs.read()
			t0 := time.Now()
			_, _, e := v.GetCtx(ctx, dr, r.id)
			us := float64(time.Since(t0).Nanoseconds()) / 1e3
			if e != nil {
				err = e
			}
			if cfs.read().sub(before).reads > 0 {
				miss = append(miss, us)
			} else {
				hit = append(hit, us)
			}
		}
		t0 := time.Now()
		_, _, e := v.GetCtx(ctx, dr, absentID(0, uint32(1000+i%64)))
		if !errors.Is(e, core.ErrNotFound) {
			err = fmt.Errorf("get of an absent ID: %v", e)
		}
		absent = append(absent, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	ly["core.get_miss_us"] = metric{Value: median(miss), Unit: "us", N: len(miss)}
	ly["core.get_hit_us"] = metric{Value: median(hit), Unit: "us", N: len(hit)}
	ly["core.get_absent_us"] = metric{Value: median(absent), Unit: "us", N: len(absent)}
	return err
}

// reopenProbes copies the live vault directory — a crash image: no Close,
// so no snapshot, the whole WAL to replay — opens the copy and sweeps it.
func (r *replayer) reopenProbes(ly map[string]metric) error {
	imageDir := filepath.Join(r.dir, "crash-image")
	if err := copyTree(filepath.Join(r.dir, "vault"), imageDir); err != nil {
		return err
	}
	opt := r.opt
	opt.FS = nil
	t0 := time.Now()
	v2, err := vaultcfg.OpenWith(imageDir, "bench", r.master, opt)
	if err != nil {
		return fmt.Errorf("opening the crash image: %w", err)
	}
	defer v2.Close()
	ly["core.open_s"] = metric{Value: time.Since(t0).Seconds(), Unit: "s", N: 1}
	t0 = time.Now()
	if _, err := v2.VerifyAll(nil, nil); err != nil {
		return fmt.Errorf("verifying the crash image: %w", err)
	}
	ly["core.verify_all_s"] = metric{Value: time.Since(t0).Seconds(), Unit: "s", N: 1}
	return nil
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o700)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o600)
	})
}

// layerMetrics reduces the replay to the per-layer numbers, and returns the
// depth waterfall (median per class at each depth) as printable rows.
func layerMetrics(ly map[string]metric, traced []tracedOp, spans []span, leaf *leafLab, auditPerOp float64) (waterfall []string) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	vals := map[string][]float64{}
	add := func(k string, v float64) { vals[k] = append(vals[k], v) }
	var puts, gets, putBytes int
	var putFS, getFS fsCounts
	for i := range traced {
		t := &traced[i]
		cl := classNames[kindClass[t.kind]]
		add("a."+cl, us(t.a))
		add("b."+cl, us(t.b))
		add("d."+cl, us(t.leaves))
		add("http."+cl, us(t.a-t.b))
		add("httpapi."+cl, us(t.b-t.c))
		add("c."+kindNames[t.kind], us(t.c))
		add("c."+cl, us(t.c))
		switch t.kind {
		case kCreate:
			add("put_unattr", us(t.c-t.leaves))
			add("fsync_share", float64(t.fs.syncTime)/float64(max(t.c, 1)))
			puts++
			putBytes += t.bodyLen
			putFS = putFS.add(t.fs)
		case kGet:
			add("get_unattr", us(t.c-t.leaves))
			gets++
			getFS.syncs += t.fs.syncs
		}
	}
	for i := range spans {
		if sp := &spans[i]; len(sp.Name) > 2 && sp.Name[:2] == "d:" {
			add(sp.Name[2:], float64(sp.End-sp.Start)/1e3)
		}
	}
	set := func(name, key, unit string, scale float64) {
		xs := vals[key]
		ly[name] = metric{Value: median(xs) * scale, Unit: unit, N: len(xs)}
	}
	set("trace.put_p50_ms", "a.put", "ms", 1e-3)
	set("trace.get_p50_ms", "a.get", "ms", 1e-3)
	set("http.put_overhead_us", "http.put", "us", 1)
	set("http.get_overhead_us", "http.get", "us", 1)
	for _, cl := range classNames {
		set("httpapi."+cl+"_self_us", "httpapi."+cl, "us", 1)
	}
	set("core.put_us", "c.create", "us", 1)
	set("core.correct_us", "c.correct", "us", 1)
	set("core.put_unattributed_us", "put_unattr", "us", 1)
	set("core.get_unattributed_us", "get_unattr", "us", 1)
	set("core.search_us", "c.search", "us", 1)
	set("core.audit_query_us", "c.audit", "us", 1)
	set("core.history_us", "c.history", "us", 1)
	set("core.prove_us", "c.proof", "us", 1)
	set("faultfs.fsync_share_of_put", "fsync_share", "ratio", 1)

	set("vcrypto.seal_us", "vcrypto.seal", "us", 1)
	set("vcrypto.open_us", "vcrypto.open", "us", 1)
	set("vcrypto.keystore_create_us", "keystore.create", "us", 1)
	set("vcrypto.keystore_get_miss_us", "keystore.get_miss", "us", 1)
	set("index.add_us", "index.add", "us", 1)
	set("index.search_common_us", "index.search_common", "us", 1)
	set("index.search_rare_us", "index.search_rare", "us", 1)
	set("merkle.append_us", "merkle.append", "us", 1)
	set("merkle.head_us", "merkle.head", "us", 1)
	set("merkle.prove_us", "merkle.prove", "us", 1)
	set("audit.append_us", "audit.append", "us", 1)
	set("provenance.record_us", "provenance.record", "us", 1)
	set("blockstore.append_us", "blockstore.append", "us", 1)
	set("blockstore.sync_us", "blockstore.sync", "us", 1)
	set("blockstore.read_us", "blockstore.read", "us", 1)

	ly["vcrypto.sign_us"] = usOf(200, func(int) { leaf.signer.Sign(make([]byte, 64)) })
	ly["index.results_per_search"] = metric{Value: float64(leaf.searchResults) / float64(max(leaf.searches, 1)), Unit: "count", N: leaf.searches}
	ly["audit.events_per_op"] = metric{Value: auditPerOp, Unit: "count", N: 3 * len(traced)}
	ly["blockstore.bytes_per_user_byte"] = metric{Value: float64(leaf.blocks.StorageBytes()) / float64(max(leaf.plainBytes, 1)), Unit: "ratio"}
	n := float64(max(puts, 1))
	ly["faultfs.fsyncs_per_put"] = metric{Value: float64(putFS.syncs) / n, Unit: "count", N: puts}
	ly["faultfs.writes_per_put"] = metric{Value: float64(putFS.writes) / n, Unit: "count", N: puts}
	ly["faultfs.fsyncs_per_get"] = metric{Value: float64(getFS.syncs) / float64(max(gets, 1)), Unit: "count", N: gets}
	ly["faultfs.fsync_us"] = metric{Value: float64(putFS.syncTime.Nanoseconds()) / 1e3 / float64(max(putFS.syncs, 1)), Unit: "us", N: int(putFS.syncs)}
	ly["faultfs.write_bytes_per_user_byte"] = metric{Value: float64(putFS.writeBytes) / float64(max(putBytes, 1)), Unit: "ratio", N: puts}
	ly["wal.bytes_per_put"] = metric{Value: float64(putFS.walBytes) / n, Unit: "B", N: puts}

	waterfall = append(waterfall, fmt.Sprintf("%-8s %6s %12s %12s %12s %12s", "class", "n", "(a) client", "(b) httpapi", "(c) core", "(d) leaves"))
	for _, cl := range classNames {
		row := fmt.Sprintf("%-8s %6d", cl, len(vals["a."+cl]))
		for _, depth := range []string{"a.", "b.", "c.", "d."} {
			row += fmt.Sprintf(" %9.1f us", median(vals[depth+cl]))
		}
		waterfall = append(waterfall, row)
	}
	return waterfall
}
