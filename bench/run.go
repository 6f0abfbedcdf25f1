package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"medvault/internal/medclient"
)

// sample is one completed timed op.
type sample struct {
	kind kind
	ok   bool
	// lat is what the caller waited: service time in a closed loop, and in an
	// open loop the time from the instant the op was due, so a stall is
	// charged to every op queued behind it.
	lat time.Duration
	// late is how long after its due instant an open-loop op was issued.
	late time.Duration
}

// actors are one connection's clients, one per principal, sharing the
// connection's single keep-alive TCP connection.
type actors struct {
	dr, clerk, officer, bg *medclient.Client
}

// gate collects the correctness verdicts of one run. It outlives the
// drivers: a run talks to several servers (set-ups, restarts), each through
// its own driver, and every answer counts.
type gate struct {
	workload string
	seed     int64

	mu       sync.Mutex
	failed   int
	failures []string // the first few, for the report
}

// driver issues a plan's ops against one server and gates every answer.
type driver struct {
	*gate
	plan       *plan
	records    []record // the model answers are checked against; plan.records unless a traced depth substitutes its own IDs
	lenient    bool     // traced replay: statuses are gated, bodies and counts are not (three depths share the preloaded records)
	conns      []actors
	transports []*http.Transport
}

func newGate(p *plan) *gate { return &gate{workload: p.spec.name, seed: p.seed} }

// newDriver builds conns connections to base, reporting to g. Each is its
// own transport capped at one TCP connection, so "N connections" is exact.
func newDriver(p *plan, g *gate, base string, conns int) *driver {
	d := &driver{gate: g, plan: p, records: p.records}
	for c := 0; c < conns; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
		d.transports = append(d.transports, tr)
		cl := medclient.New(base, medclient.WithHTTPClient(&http.Client{Transport: tr, Timeout: 60 * time.Second}))
		d.conns = append(d.conns, actors{
			dr:      cl.As(physician(c % p.spec.conns)),
			clerk:   cl.As(clerk(c % p.spec.conns)),
			officer: cl.As(officer(c % p.spec.conns)),
			bg:      cl.As(responder(c % p.spec.conns)),
		})
	}
	return d
}

func (d *driver) close() {
	for _, tr := range d.transports {
		tr.CloseIdleConnections()
	}
}

// fail records one gate violation. where names the phase and op index, which
// with the workload and seed is enough to replay it; an unexpected status
// arrives as a *medclient.StatusError and prints its method, path and body.
func (g *gate) fail(where string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failed++
	if len(g.failures) < 10 {
		g.failures = append(g.failures, fmt.Sprintf("workload=%s seed=%d %s: %v", g.workload, g.seed, where, err))
	}
}

// do issues one op on conn and checks the answer. It returns the time the
// HTTP call took (the check is not timed) and the gate's verdict: an
// unexpected status arrives as a *medclient.StatusError, a wrong body as a
// plain error.
func (d *driver) do(ctx context.Context, conn int, o *op) (time.Duration, error) {
	a := d.conns[conn]
	owner := conn % d.plan.spec.conns
	var rec *record
	if o.rec >= 0 {
		rec = &d.records[o.rec]
	}
	// Every case makes its call, stops the clock with done, and only then
	// checks the body: done reports whether the op is settled already (it
	// failed, or bodies are not being checked).
	t0 := time.Now()
	var lat time.Duration
	done := func(err error) bool {
		lat = time.Since(t0)
		return err != nil || d.lenient
	}
	checkBody := func(got *medclient.Record) error {
		if got.Version != uint64(o.ver) {
			return fmt.Errorf("%s: version %d, want %d", rec.id, got.Version, o.ver)
		}
		if contentHash(got) != rec.hashes[o.ver-1] {
			return fmt.Errorf("%s v%d: body differs from what was acknowledged", rec.id, o.ver)
		}
		return nil
	}
	switch o.kind {
	case kCreate:
		got, _, err := a.dr.CreateRecord(ctx, *o.payload)
		if done(err) {
			return lat, err
		}
		return lat, checkBody(&got)
	case kCorrect:
		got, _, err := a.dr.Correct(ctx, rec.id, *o.payload)
		if done(err) {
			return lat, err
		}
		return lat, checkBody(&got)
	case kGet, kGetBreakGlass:
		cl := a.dr
		if o.kind == kGetBreakGlass {
			cl = a.bg
		}
		got, _, err := cl.GetRecord(ctx, rec.id)
		if done(err) {
			return lat, err
		}
		return lat, checkBody(&got)
	case kGetVersion:
		got, _, err := a.dr.GetVersion(ctx, rec.id, uint64(o.ver))
		if done(err) {
			return lat, err
		}
		return lat, checkBody(&got)
	case kHistory:
		hist, _, err := a.dr.History(ctx, rec.id)
		if done(err) {
			return lat, err
		}
		if len(hist) != int(o.ver) || hist[len(hist)-1].Number != uint64(o.ver) {
			return lat, fmt.Errorf("%s: history has %d versions, want %d", rec.id, len(hist), o.ver)
		}
		return lat, nil
	case kGetAbsent:
		_, _, err := a.dr.GetRecord(ctx, absentID(owner, o.ver), http.StatusNotFound)
		done(err)
		return lat, err
	case kGetDenied:
		_, _, err := a.clerk.GetRecord(ctx, rec.id, http.StatusForbidden)
		done(err)
		return lat, err
	case kSearchCommon, kSearchRare:
		term := commonTerm
		if o.kind == kSearchRare {
			term = rareTerm
		}
		res, _, err := a.dr.Search(ctx, []string{term})
		if done(err) {
			return lat, err
		}
		if res.Count != len(res.IDs) {
			return lat, fmt.Errorf("search %q: count %d but %d ids", term, res.Count, len(res.IDs))
		}
		if o.kind == kSearchCommon {
			if res.Count < int(o.wantMin) {
				return lat, fmt.Errorf("search %q: %d ids, want at least %d", term, res.Count, o.wantMin)
			}
			return lat, nil
		}
		// Other connections' records come and go as they write; this
		// connection's share of the answer must be exactly its model's.
		prefix := fmt.Sprintf("w%d-", owner)
		var mine []string
		for _, id := range res.IDs {
			if strings.HasPrefix(id, prefix) {
				mine = append(mine, id)
			}
		}
		return lat, sameIDs("search "+term, mine, o.wantIDs)
	case kPatientRecords:
		res, _, err := a.dr.PatientRecords(ctx, rec.mrn)
		if done(err) {
			return lat, err
		}
		return lat, sameIDs("patient "+rec.mrn, res.IDs, o.wantIDs)
	case kAuditRecord, kAuditActor, kAuditDenied:
		q := medclient.AuditQuery{}
		switch o.kind {
		case kAuditRecord:
			q.Record = rec.id
		case kAuditActor:
			q.Actor = clerk(owner)
		default:
			q.DeniedOnly = true
		}
		evs, _, err := a.officer.Audit(ctx, q)
		if done(err) {
			return lat, err
		}
		if len(evs) < int(o.wantMin) {
			return lat, fmt.Errorf("audit %+v: %d events, want at least %d", q, len(evs), o.wantMin)
		}
		for i := range evs {
			e := &evs[i]
			if (q.Record != "" && e.Record != q.Record) || (q.Actor != "" && e.Actor != q.Actor) ||
				(q.DeniedOnly && e.Outcome != "denied") {
				return lat, fmt.Errorf("audit %+v: event %d does not match the filter", q, e.Seq)
			}
		}
		return lat, nil
	case kDisclosures:
		ds, _, err := a.officer.Disclosures(ctx, rec.mrn)
		if done(err) {
			return lat, err
		}
		if len(ds) < int(o.wantMin) {
			return lat, fmt.Errorf("disclosures %s: %d rows, want at least %d", rec.mrn, len(ds), o.wantMin)
		}
		return lat, nil
	case kProof:
		pr, _, err := a.dr.Proof(ctx, rec.id, uint64(o.ver))
		if done(err) {
			return lat, err
		}
		if pr.RecordID != rec.id || pr.Version != uint64(o.ver) || pr.LeafIndex >= pr.HeadSize || pr.HeadSig == "" {
			return lat, fmt.Errorf("proof %s v%d: malformed answer %+v", rec.id, o.ver, pr)
		}
		return lat, nil
	}
	return 0, fmt.Errorf("unplanned op kind %d", o.kind)
}

func sameIDs(what string, got, want []string) error {
	if !sort.StringsAreSorted(got) {
		got = append([]string(nil), got...)
		sort.Strings(got)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d ids, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: id %q, want %q", what, got[i], want[i])
		}
	}
	return nil
}

// preload writes the plan's preload over every connection the driver has,
// grants the break-glass responders their emergency access, then plays each
// connection's warm-up stream.
func (d *driver) prepare(ctx context.Context) {
	var wg sync.WaitGroup
	for c := range d.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(d.plan.preload) && ctx.Err() == nil; i += len(d.conns) {
				o := &d.plan.preload[i]
				// A preload create acts as its record's owner on whichever
				// connection carries it.
				owner := d.plan.records[o.rec].conn
				cl := d.conns[c].dr.As(physician(owner))
				got, _, err := cl.CreateRecord(ctx, *o.payload)
				if err == nil && contentHash(&got) != d.plan.records[o.rec].hashes[0] {
					err = errors.New("acknowledged body differs from what was sent")
				}
				if err != nil {
					d.fail(fmt.Sprintf("preload[%d]", i), err)
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < d.plan.spec.conns; c++ {
		if _, err := d.conns[c].bg.BreakGlass(ctx, "benchmark emergency access", 24*60); err != nil {
			d.fail("breakglass", err)
		}
	}
	d.stream(ctx, "warm", d.plan.warm, 0)
}

// stream plays one op list per connection and returns the samples per
// connection in issue order, plus the wall time from the common start until
// the last connection finished. rate > 0 paces an open loop: op i of
// connection c is due (i*conns+c)/rate seconds after the start.
func (d *driver) stream(ctx context.Context, phase string, ops [][]op, rate float64) ([][]sample, time.Duration) {
	out := make([][]sample, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range ops {
		out[c] = make([]sample, len(ops[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range ops[c] {
				o := &ops[c][i]
				var wait, late time.Duration
				if ctx.Err() != nil {
					return // cancelled: the run is abandoned, not measured
				}
				if rate > 0 {
					due := start.Add(time.Duration(float64(i*len(ops)+c) / rate * float64(time.Second)))
					if !sleepUntil(ctx, due) {
						return
					}
					late = time.Since(due)
					wait = late
				}
				lat, err := d.do(ctx, c, o)
				if err != nil {
					d.fail(fmt.Sprintf("%s conn=%d op=%d kind=%s", phase, c, i, kindNames[o.kind]), err)
				}
				out[c][i] = sample{kind: o.kind, ok: err == nil, lat: wait + lat, late: late}
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// sleepUntil waits for the instant due and reports whether it came before ctx
// was cancelled.
func sleepUntil(ctx context.Context, due time.Time) bool {
	d := time.Until(due)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// readBack is the durability half of the gate: after the kill -9 restart,
// every version the plan wrote must be readable with the acknowledged body.
// It returns how many reads it attempted.
func (d *driver) readBack(ctx context.Context) int {
	var wg sync.WaitGroup
	attempted := 0
	for i := range d.plan.records {
		attempted += len(d.plan.records[i].hashes)
	}
	for c := range d.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(d.plan.records) && ctx.Err() == nil; i += len(d.conns) {
				rec := &d.plan.records[i]
				cl := d.conns[c].dr.As(physician(rec.conn))
				for v := range rec.hashes {
					got, _, err := cl.GetVersion(ctx, rec.id, uint64(v+1))
					if err == nil && contentHash(&got) != rec.hashes[v] {
						err = errors.New("body differs from what was acknowledged before the kill")
					}
					if err != nil {
						d.fail(fmt.Sprintf("readback %s v%d", rec.id, v+1), err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return attempted
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a timing
}

// runResult is what one workload run measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer"`
	TimedSecs float64           `json:"timed_seconds"`
	// Tails is, per op class, the highest percentile that has at least ten
	// samples beyond it, as text: which percentile that is depends on n.
	Tails []string `json:"tails,omitempty"`
	// Waterfall is the traced run's median per op class at each depth.
	Waterfall []string `json:"waterfall,omitempty"`
}

// A run rehearses set-up setupsPerRun times (setup_s is the median), and
// kills and restarts the measured vault recoveryCycles times (recover_s and
// verify_s are the medians): each would otherwise be a single sample per run.
const (
	setupsPerRun   = 3
	recoveryCycles = 3
)

// runOpts are the knobs of one end-to-end run that are not part of the
// workload: how often set-up is rehearsed, and the resolving-power overrides.
type runOpts struct {
	setups     int      // set-ups per run; setup_s is their median
	dataBase   string   // where vault directories are made ("" = the lab)
	extraFlags []string // appended to the workload's medvaultd flags
}

// vaultUnderTest is one child medvaultd, its directory and the driver
// connected to it.
type vaultUnderTest struct {
	srv *child
	dir string
	d   *driver
}

// release disconnects, kills the child and removes its directory.
func (v *vaultUnderTest) release() {
	v.d.close()
	v.srv.kill()
	os.RemoveAll(v.dir)
}

// childRun is the fixed part of one end-to-end run: where the child logs
// and the flags it is started with.
type childRun struct {
	lab      *lab
	plan     *plan
	gate     *gate
	logPath  string
	flags    []string
	dataBase string
}

// setUp is what setup_s times: start medvaultd on a fresh directory, wait
// for /healthz, preload, warm up, snapshot /metrics.
func (r *childRun) setUp(ctx context.Context) (*vaultUnderTest, promSnapshot, error) {
	dir, err := r.lab.newDataDir(r.dataBase)
	if err != nil {
		return nil, nil, err
	}
	srv, err := r.lab.start(ctx, dir, r.logPath, r.flags)
	if err != nil {
		return nil, nil, err
	}
	v := &vaultUnderTest{srv: srv, dir: dir, d: newDriver(r.plan, r.gate, srv.base, maxConns)}
	v.d.prepare(ctx)
	snap, err := scrape(ctx, srv.base)
	return v, snap, err
}

// restart brings a killed child back on the same directory. recoverS runs
// from the exec until /healthz is 200 and one get has been verified; verifyS
// is the POST /verify sweep that follows.
func (r *childRun) restart(ctx context.Context, v *vaultUnderTest) (recoverS, verifyS float64, err error) {
	t0 := time.Now()
	if v.srv, err = r.lab.start(ctx, v.dir, r.logPath, r.flags); err != nil {
		return 0, 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	v.d = newDriver(r.plan, r.gate, v.srv.base, maxConns)
	first := &r.plan.records[0]
	if got, _, err := v.d.conns[0].dr.As(physician(first.conn)).GetVersion(ctx, first.id, 1); err != nil {
		r.gate.fail("first get after recovery", err)
	} else if contentHash(&got) != first.hashes[0] {
		r.gate.fail("first get after recovery", errors.New("body differs from what was acknowledged"))
	}
	recoverS = time.Since(t0).Seconds()
	t0 = time.Now()
	if vr, _, err := v.d.conns[0].officer.Verify(ctx); err != nil {
		r.gate.fail("verify after recovery", err)
	} else if vr.Status != "ok" {
		r.gate.fail("verify after recovery", fmt.Errorf("status %q: %s", vr.Status, vr.Error))
	}
	return recoverS, time.Since(t0).Seconds(), nil
}

// runEndToEnd measures one workload against a child medvaultd.
func (l *lab) runEndToEnd(ctx context.Context, s spec, seed int64, seconds int, opt runOpts) (*runResult, error) {
	p := buildPlan(s, seed, s.timedOps(seconds))
	res := &runResult{Workload: s.name, Seed: seed, Seconds: seconds,
		EndToEnd: map[string]metric{}, Layers: map[string]metric{}}
	r := &childRun{
		lab: l, plan: p, gate: newGate(p), dataBase: opt.dataBase,
		logPath: filepath.Join(l.outDir, fmt.Sprintf("medvaultd-%s.stderr", s.name)),
		flags:   append(s.serverFlags(), opt.extraFlags...),
	}
	if err := os.WriteFile(r.logPath, nil, 0o644); err != nil {
		return nil, err
	}

	// Set-up, rehearsed on fresh directories; the last vault is the one
	// measured. A broken set-up will not get better by repeating it.
	var (
		v      *vaultUnderTest
		before promSnapshot
		setupS []float64
	)
	for i := 0; i < opt.setups && r.gate.failed == 0; i++ {
		if v != nil {
			v.release()
		}
		t0 := time.Now()
		var err error
		if v, before, err = r.setUp(ctx); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res.Attempted += (len(p.preload) + warmupOps) * len(setupS)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Timed phase, on exactly the workload's connections.
	cpu0, err := v.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	own0 := ownCPUSeconds()
	stopRSS := v.srv.watchRSS()
	samples, elapsed := v.d.stream(ctx, "timed", p.timed, s.openRate)
	rssSamples := stopRSS()
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: no recovery cycles, no read-back
	}
	own1 := ownCPUSeconds()
	cpu1, err := v.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	peakRSS, err := v.srv.statusMiB("VmHWM")
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, v.srv.base)
	if err != nil {
		return nil, err
	}
	res.Attempted += p.totalOps()
	res.TimedSecs = elapsed.Seconds()

	// kill -9 and recover, several times over. Nothing closes the vault in
	// between, so every restart replays the whole WAL again. What is on disk
	// is measured at the first kill.
	var onDisk int64
	var recoverS, verifyS []float64
	for cycle := 0; cycle < recoveryCycles; cycle++ {
		v.d.close()
		v.srv.kill()
		if cycle == 0 {
			if onDisk, err = dirBytes(v.dir); err != nil {
				return nil, err
			}
		}
		rs, vs, err := r.restart(ctx, v)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		recoverS, verifyS = append(recoverS, rs), append(verifyS, vs)
	}
	res.Attempted += 2*len(recoverS) + v.d.readBack(ctx)
	v.release()

	res.Failed, res.Failures = r.gate.failed, r.gate.failures
	okOps := summarize(res, samples, elapsed)
	ops := float64(max(okOps, 1))
	e, ly := res.EndToEnd, res.Layers
	e["setup_s"] = metric{Value: median(setupS), Unit: "s", N: len(setupS)}
	e["rss_mb"] = metric{Value: mean(rssSamples), Unit: "MiB", N: len(rssSamples)}
	e["space_amp"] = metric{Value: float64(onDisk) / float64(p.userBytes), Unit: "ratio"}
	ly["cpu_ms_per_op"] = metric{Value: (cpu1 - cpu0) * 1000 / ops, Unit: "ms", N: okOps}
	ly["peak_rss_mb"] = metric{Value: peakRSS, Unit: "MiB"}
	ly["recover_s"] = metric{Value: median(recoverS), Unit: "s", N: len(recoverS)}
	ly["verify_s"] = metric{Value: median(verifyS), Unit: "s", N: len(verifyS)}
	ly["loadgen.cpu_ms_per_op"] = metric{Value: (own1 - own0) * 1000 / ops, Unit: "ms", N: okOps}
	serverLayers(res.Layers, before, after)
	return res, nil
}

// summarize reduces the timed samples to the client-side metrics and
// returns how many ops completed with an expected, correct answer.
func summarize(res *runResult, samples [][]sample, elapsed time.Duration) int {
	// Merge the connections back into global issue order: op i of
	// connection c was planned as the (i*conns+c)-th op.
	var byClass [numClasses][]float64
	var late, scans []float64
	okOps, met, total := 0, 0, 0
	longest := 0
	for _, cs := range samples {
		longest = max(longest, len(cs))
	}
	for i := 0; i < longest; i++ {
		for _, cs := range samples {
			if i >= len(cs) {
				continue
			}
			sm := cs[i]
			total++
			cl := kindClass[sm.kind]
			if sm.ok {
				okOps++
				ms := float64(sm.lat) / float64(time.Millisecond)
				byClass[cl] = append(byClass[cl], ms)
				if sm.kind == kAuditRecord || sm.kind == kAuditActor || sm.kind == kAuditDenied {
					scans = append(scans, ms)
				}
				if sm.lat <= sloLimit[cl] {
					met++
				}
			}
			late = append(late, float64(sm.late)/float64(time.Millisecond))
		}
	}
	e, ly := res.EndToEnd, res.Layers
	ly["ops_per_s"] = metric{Value: float64(okOps) / elapsed.Seconds(), Unit: "1/s", N: okOps}
	e["slo_ok_ratio"] = metric{Value: float64(met) / float64(max(total, 1)), Unit: "ratio", N: total}
	for cl := class(0); cl < numClasses; cl++ {
		name, xs := classNames[cl], byClass[cl]
		ly[name+"_p50_ms"] = metric{Value: slicedMedian(xs, latencySlices), Unit: "ms", N: len(xs)}
		sorted := sortedCopy(xs)
		ly["client."+name+"_p99_ms"] = metric{Value: percentile(sorted, 0.99), Unit: "ms", N: len(xs)}
		if q, label := supportedTail(len(xs)); label != "" {
			res.Tails = append(res.Tails, fmt.Sprintf("%s %s %.3f ms (n=%d)", name, label, percentile(sorted, q), len(xs)))
		}
	}
	ly["client.audit_scan_p50_ms"] = metric{Value: median(scans), Unit: "ms", N: len(scans)}
	ly["client.put_p999_ms"] = metric{Value: percentile(sortedCopy(byClass[classPut]), 0.999), Unit: "ms", N: len(byClass[classPut])}
	ly["loadgen.late_p99_ms"] = metric{Value: percentile(sortedCopy(late), 0.99), Unit: "ms", N: len(late)}
	return okOps
}
