package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/medclient"
)

// class groups operations by the latency metric and SLO limit they count
// toward.
type class uint8

const (
	classPut class = iota
	classGet
	classSearch
	classAudit
	numClasses
)

var classNames = [numClasses]string{"put", "get", "search", "audit"}

// sloLimit is each class's latency limit for slo_ok_ratio. Frozen: changing
// one redefines the metric for every later comparison. Each sits about ten
// times above its class's open-loop median on the seed commit, so the ratio
// counts ops caught behind a stall (a flush, a checkpoint, a long scan) and
// not the ordinary spread of service times, which would put the limit on
// the knee of the distribution and make the ratio as noisy as a p95.
var sloLimit = [numClasses]time.Duration{
	classPut:    25 * time.Millisecond,
	classGet:    10 * time.Millisecond,
	classSearch: 20 * time.Millisecond,
	classAudit:  50 * time.Millisecond,
}

// kind is one concrete request shape.
type kind uint8

const (
	kCreate         kind = iota // POST /records
	kCorrect                    // POST /records/{id}/corrections
	kGet                        // GET /records/{id}
	kGetVersion                 // GET /records/{id}/versions/{n}
	kHistory                    // GET /records/{id}/history
	kGetAbsent                  // GET /records/{id} of a never-written ID: 404
	kGetDenied                  // GET /records/{id} as a billing clerk: 403
	kGetBreakGlass              // GET /records/{id} under an emergency grant: 200
	kSearchCommon               // GET /search?q=<most common condition>
	kSearchRare                 // GET /search?q=<rare condition>, exact ID set checked
	kPatientRecords             // GET /patients/{mrn}/records
	kAuditRecord                // GET /audit?record=
	kAuditActor                 // GET /audit?actor=
	kAuditDenied                // GET /audit?denied=true
	kDisclosures                // GET /patients/{mrn}/disclosures
	kProof                      // GET /records/{id}/versions/{n}/proof
	numKinds
)

var kindClass = [numKinds]class{
	kCreate: classPut, kCorrect: classPut,
	kGet: classGet, kGetVersion: classGet, kHistory: classGet,
	kGetAbsent: classGet, kGetDenied: classGet, kGetBreakGlass: classGet,
	kSearchCommon: classSearch, kSearchRare: classSearch, kPatientRecords: classSearch,
	kAuditRecord: classAudit, kAuditActor: classAudit, kAuditDenied: classAudit,
	kDisclosures: classAudit, kProof: classAudit,
}

var kindNames = [numKinds]string{
	"create", "correct", "get", "get_version", "history", "get_absent",
	"get_denied", "get_breakglass", "search_common", "search_rare",
	"patient_records", "audit_record", "audit_actor", "audit_denied",
	"disclosures", "proof",
}

// rareTerm is the condition the exact-result search probes use. The ehr
// generator halves the odds per rank, so rank 7 ("migraine") matches about
// one record in 256: rare enough to be a short posting list, common enough
// that every workload's model set is non-empty.
var (
	commonTerm = ehr.CommonCondition()
	rareTerm   = ehr.ConditionNames()[7]
)

// targetSel says which of a connection's records a record-addressed op picks.
type targetSel uint8

const (
	selHot    targetSel = iota // uniform over the first spec.hot preloaded records
	selRecent                  // uniform over the 64 most recently written records
	selZipf                    // Zipf(1.1) over patients, then uniform over that patient's records
)

// spec is one workload: its loop, sizes and mix. Why each exists is in
// README.md and BENCHMARK.json.
type spec struct {
	name  string
	conns int
	// openRate > 0 makes the loop open: op k is due k/openRate seconds into
	// the timed phase whatever the server is doing. 0 is a closed loop.
	openRate float64
	preload  int // records written during set-up
	hot      int // read working set: the first hot preloaded records (0 = all)
	// opsPerSecond fixes the timed work: a run measures opsPerSecond ×
	// --seconds operations, sized once on the seed commit so that they take
	// about --seconds there. A faster commit finishes sooner.
	opsPerSecond int
	// blockCacheMB sizes medvaultd's block cache (-block-cache-mb); 0 leaves
	// the default.
	blockCacheMB int
	sel          targetSel
	mix          [numKinds]int // parts per thousand
}

// warmupOps is the untimed prefix of each connection's stream.
const warmupOps = 500

// Within a class the kinds differ in cost by up to fifty times (a proof is a
// few hundred microseconds, an accounting of disclosures tens of
// milliseconds), so a class median is only steady if it falls well inside
// one kind's band and not on the boundary between two. The mixes below put
// it inside the rare-term search for the search class and inside the
// inclusion proof for the audit class. The whole-log scans behind GET /audit
// would be the more telling median, but they are memory-bound, and on a
// shared host their run-to-run spread (about 20 %) is several times that of
// anything else here; they show in client.audit_scan_p50_ms, the class p99s
// and the per-layer metrics instead.
var specs = []spec{
	{
		name:  "ingest",
		conns: 2, preload: 3000, opsPerSecond: 1000, sel: selRecent,
		mix: [numKinds]int{
			kCreate: 780, kCorrect: 100,
			kGet: 40, kGetVersion: 5, kHistory: 5,
			kSearchCommon: 8, kSearchRare: 24, kPatientRecords: 8,
			kAuditRecord: 5, kAuditActor: 2, kAuditDenied: 1, kDisclosures: 2, kProof: 20,
		},
	},
	{
		name:  "read_hot",
		conns: 1, preload: 3000, hot: 800, opsPerSecond: 2000, sel: selHot,
		mix: [numKinds]int{
			kGet: 860, kGetVersion: 40, kHistory: 20,
			kSearchCommon: 8, kSearchRare: 24, kPatientRecords: 8,
			kAuditRecord: 3, kAuditActor: 1, kAuditDenied: 1, kDisclosures: 1, kProof: 14,
			kCorrect: 20,
		},
	},
	{
		name:  "read_cold",
		conns: 1, preload: 6000, opsPerSecond: 1800, sel: selHot,
		blockCacheMB: 1,
		mix: [numKinds]int{
			kGet: 830, kGetVersion: 40, kHistory: 20, kGetAbsent: 30,
			kSearchCommon: 8, kSearchRare: 24, kPatientRecords: 8,
			kAuditRecord: 3, kAuditActor: 1, kAuditDenied: 1, kDisclosures: 1, kProof: 14,
			kCorrect: 20,
		},
	},
	{
		name:  "clinic_mix",
		conns: 2, openRate: 200, preload: 3000, opsPerSecond: 200, sel: selZipf,
		mix: [numKinds]int{
			// clinician 60 %
			kGet: 330, kHistory: 60, kGetVersion: 60, kCreate: 100, kCorrect: 50,
			// records clerk 20 %
			kSearchCommon: 40, kSearchRare: 120, kPatientRecords: 40,
			// auditor 15 %
			kAuditRecord: 25, kAuditActor: 8, kAuditDenied: 7, kDisclosures: 10, kProof: 100,
			// break-glass responder and denied probes 5 %
			kGetBreakGlass: 25, kGetDenied: 25,
		},
	},
}

// serverFlags are the medvaultd flags the workload departs from the defaults
// with.
func (s spec) serverFlags() []string {
	if s.blockCacheMB == 0 {
		return nil
	}
	return []string{"-block-cache-mb", strconv.Itoa(s.blockCacheMB)}
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// op is one planned request with what a correct server must answer. Ops are
// planned before anything runs: each connection's stream assumes every
// earlier op of that connection succeeded, which is what the correctness
// gate then demands.
type op struct {
	kind    kind
	rec     int32  // index into plan.records; -1 when the op names no record
	ver     uint32 // version targeted (get_version, proof) or expected as latest
	wantMin int32  // audit/disclosure/common-search answers hold at least this many rows
	// payload is the record a create or correction sends. wantIDs is the exact
	// ID set a rare search or patient listing must return among this
	// connection's records.
	payload *medclient.Record
	wantIDs []string
}

// record is the harness's model of one stored record.
type record struct {
	id, mrn string
	conn    int
	rare    bool
	// Audit rows planned so far: touches counts events naming the record,
	// disclosed the subset (create, read, correct) that an accounting of
	// disclosures lists.
	touches, disclosed int32
	hashes             [][32]byte // content hash per planned version
	latest             *medclient.Record
}

// plan is everything one run will send, derived from the seed alone.
type plan struct {
	spec    spec
	seed    int64
	records []record
	preload []op   // creates, issued over two connections during set-up
	warm    [][]op // per connection, untimed
	timed   [][]op // per connection
	// supplement follows the stream in the traced replay only (see
	// planSupplement); an end-to-end run never plans one.
	supplement []op
	planner    *planner
	// userBytes is the JSON size of every record body the plan writes
	// (preload, warm-up and timed), the denominator of space_amp.
	userBytes int64
}

// Principals per connection. Every connection acts through its own set so
// per-actor audit answers stay exact under concurrency.
func physician(conn int) string { return fmt.Sprintf("dr-%d", conn) }
func clerk(conn int) string     { return fmt.Sprintf("clerk-%d", conn) }
func officer(conn int) string   { return fmt.Sprintf("officer-%d", conn) }
func responder(conn int) string { return fmt.Sprintf("bg-%d", conn) }

// maxConns bounds the connections any workload (and the preload) uses.
const maxConns = 2

// principalsConf is the vault's principals file for a benchmark run.
func principalsConf() string {
	var b strings.Builder
	b.WriteString("# bench principals\n")
	for c := 0; c < maxConns; c++ {
		fmt.Fprintf(&b, "%s physician\n%s billing-clerk\n%s compliance-officer\n%s billing-clerk\n",
			physician(c), clerk(c), officer(c), responder(c))
	}
	return b.String()
}

// contentHash is what "the same record" means to the correctness gate: every
// field a client sent, plus nothing the server chooses.
func contentHash(r *medclient.Record) [32]byte {
	h := sha256.New()
	for _, s := range []string{r.ID, r.Patient, r.MRN, r.Category, r.Author, r.Title, r.Body} {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(r.CreatedAt.UnixNano()))
	h.Write(ts[:])
	for _, c := range r.Codes {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// planner builds one plan.
type planner struct {
	p   *plan
	gen *ehr.Generator
	// Per connection: its rng, the records it owns in write order, and its
	// patients (MRN -> record indexes) in first-seen order.
	rng      []*rand.Rand
	owned    [][]int32
	patients [][]string
	byMRN    []map[string][]int32
	zipf     []*rand.Zipf
	rareIDs  [][]string // per connection, sorted
	common   []int32    // per connection: records matching commonTerm
	denied   []int32    // per connection: denied probes planned so far
	clerkOps []int32    // per connection: ops planned as the clerk so far
	nextGen  int        // ehr generator sequence, for patient -> connection routing
}

// timedOps is the fixed work of an end-to-end run of s sized for seconds.
func (s spec) timedOps(seconds int) int { return s.opsPerSecond * seconds }

// buildPlan derives a workload's whole op stream — preload, warm-up and
// total timed ops — from the seed. The same (spec, seed, total) always
// yields the same plan; the per-kind op counts depend on total alone, so
// seeds differ in which records and patients are touched, not in how much
// work there is.
func buildPlan(s spec, seed int64, total int) *plan {
	pl := &planner{
		p:   &plan{spec: s, seed: seed},
		gen: ehr.NewGenerator(seed, time.Time{}),
	}
	for c := 0; c < s.conns; c++ {
		pl.rng = append(pl.rng, rand.New(rand.NewSource(seed*1_000_003+int64(c)+1)))
		pl.byMRN = append(pl.byMRN, map[string][]int32{})
	}
	pl.owned = make([][]int32, s.conns)
	pl.patients = make([][]string, s.conns)
	pl.rareIDs = make([][]string, s.conns)
	pl.common = make([]int32, s.conns)
	pl.denied = make([]int32, s.conns)
	pl.clerkOps = make([]int32, s.conns)
	pl.zipf = make([]*rand.Zipf, s.conns)

	for i := 0; i < s.preload; i++ {
		pl.p.preload = append(pl.p.preload, pl.planCreate(-1))
	}
	pl.p.warm = make([][]op, s.conns)
	pl.p.timed = make([][]op, s.conns)
	for c := 0; c < s.conns; c++ {
		if s.sel == selZipf {
			pl.zipf[c] = rand.NewZipf(pl.rng[c], 1.1, 1, uint64(len(pl.patients[c])-1))
		}
		pl.p.warm[c] = pl.planStream(c, warmupOps/s.conns, &s.mix)
		pl.p.timed[c] = pl.planStream(c, total/s.conns, &s.mix)
	}
	pl.p.planner = pl
	return pl.p
}

// planSupplement extends the plan with a few ops of every kind on connection
// 0, so that each per-layer metric of the traced replay has samples on every
// workload whatever its mix. It moves the model (versions, audit counts)
// past what the timed stream leaves, so only the replay may call it.
func (p *plan) planSupplement(perKind int) {
	var every [numKinds]int
	for k := range every {
		every[k] = 1000 / int(numKinds)
	}
	p.supplement = p.planner.planStream(0, perKind*int(numKinds), &every)
}

// planStream plans n ops for conn with mix (parts per thousand) in exact
// proportion: the kinds are laid out as a multiset and shuffled, so every
// seed issues the same number of each kind.
func (pl *planner) planStream(conn, n int, mix *[numKinds]int) []op {
	kinds := make([]kind, 0, n)
	acc := 0
	for k := kind(0); k < numKinds; k++ {
		acc += mix[k]
		for len(kinds) < acc*n/1000 {
			kinds = append(kinds, k)
		}
	}
	rng := pl.rng[conn]
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]op, len(kinds))
	for i, k := range kinds {
		ops[i] = pl.planOp(conn, k)
	}
	return ops
}

// nextRecord draws the next synthetic record for conn (-1: a preload record,
// dealt to a connection by patient) and returns it, shaped for the HTTP API,
// with the connection that owns it. IDs are dash-separated (a slash cannot travel in one path segment) and
// carry the owning connection, and the two categories no standard role may
// write are folded into clinical so one physician can author everything.
func (pl *planner) nextRecord(conn int) (*medclient.Record, int) {
	r := pl.gen.Next()
	if conn < 0 {
		// Preload: a patient's records all go to one connection.
		conn = (pl.nextGen / 3) % pl.p.spec.conns
	}
	pl.nextGen++
	cat := r.Category
	if cat == ehr.CategoryBilling || cat == ehr.CategoryOccupational {
		cat = ehr.CategoryClinical
	}
	prefix := fmt.Sprintf("w%d-", conn)
	return &medclient.Record{
		ID:        prefix + strings.ReplaceAll(r.ID, "/", "-"),
		Patient:   r.Patient,
		MRN:       prefix + r.MRN,
		Category:  string(cat),
		Author:    physician(conn),
		CreatedAt: r.CreatedAt,
		Title:     r.Title,
		Body:      r.Body,
		Codes:     r.Codes,
	}, conn
}

func (pl *planner) addBytes(r *medclient.Record) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a Record of strings and a time always marshals
	}
	pl.p.userBytes += int64(len(b))
}

func (pl *planner) planCreate(conn int) op {
	r, conn := pl.nextRecord(conn)
	idx := int32(len(pl.p.records))
	rare := strings.Contains(r.Title, rareTerm)
	pl.p.records = append(pl.p.records, record{
		id: r.ID, mrn: r.MRN, conn: conn, rare: rare, touches: 1, disclosed: 1,
		hashes: [][32]byte{contentHash(r)}, latest: r,
	})
	pl.owned[conn] = append(pl.owned[conn], idx)
	if _, seen := pl.byMRN[conn][r.MRN]; !seen {
		pl.patients[conn] = append(pl.patients[conn], r.MRN)
	}
	pl.byMRN[conn][r.MRN] = append(pl.byMRN[conn][r.MRN], idx)
	if rare {
		ids := append(append([]string(nil), pl.rareIDs[conn]...), r.ID)
		sort.Strings(ids)
		pl.rareIDs[conn] = ids
	}
	if strings.Contains(r.Title, commonTerm) {
		pl.common[conn]++
	}
	pl.addBytes(r)
	return op{kind: kCreate, rec: idx, ver: 1, payload: r}
}

// pick chooses the record a record-addressed op of conn targets.
func (pl *planner) pick(conn int) int32 {
	rng, owned := pl.rng[conn], pl.owned[conn]
	switch pl.p.spec.sel {
	case selRecent:
		n := len(owned)
		if n > 64 {
			n = 64
		}
		return owned[len(owned)-1-rng.Intn(n)]
	case selZipf:
		recs := pl.byMRN[conn][pl.patients[conn][pl.zipf[conn].Uint64()]]
		return recs[rng.Intn(len(recs))]
	default:
		n := len(owned)
		if h := pl.p.spec.hot / pl.p.spec.conns; h > 0 && h < n {
			n = h
		}
		return owned[rng.Intn(n)]
	}
}

func (pl *planner) planOp(conn int, k kind) op {
	rng := pl.rng[conn]
	switch k {
	case kCreate:
		return pl.planCreate(conn)
	case kGetAbsent:
		// Unknown IDs repeat (64 of them) so the negative cache has hits to serve.
		return op{kind: k, rec: -1, ver: uint32(rng.Intn(64))}
	case kSearchCommon:
		return op{kind: k, rec: -1, wantMin: pl.common[conn]}
	case kSearchRare:
		return op{kind: k, rec: -1, wantIDs: pl.rareIDs[conn]}
	case kAuditActor:
		return op{kind: k, rec: -1, wantMin: pl.clerkOps[conn]}
	case kAuditDenied:
		return op{kind: k, rec: -1, wantMin: pl.denied[conn]}
	}
	idx := pl.pick(conn)
	r := &pl.p.records[idx]
	o := op{kind: k, rec: idx, ver: uint32(len(r.hashes))}
	switch k {
	case kCorrect:
		// An amendment replaces the previous amendment's text, so a record
		// corrected many times (a hot Zipf patient) keeps its size.
		c := *r.latest
		c.Body = fmt.Sprintf("%s AMENDMENT %d: prior note contained a transcription error; corrected per patient request.",
			strings.SplitN(c.Body, " AMENDMENT", 2)[0], len(r.hashes))
		c.CreatedAt = c.CreatedAt.Add(24 * time.Hour)
		r.latest = &c
		r.hashes = append(r.hashes, contentHash(&c))
		o.ver, o.payload = uint32(len(r.hashes)), &c
		pl.addBytes(&c)
	case kGetVersion, kProof:
		o.ver = uint32(1 + rng.Intn(len(r.hashes)))
	case kGetDenied:
		pl.denied[conn]++
		pl.clerkOps[conn]++
	case kPatientRecords:
		ids := make([]string, 0, 4)
		for _, i := range pl.byMRN[conn][r.mrn] {
			ids = append(ids, pl.p.records[i].id)
		}
		sort.Strings(ids)
		o.wantIDs = ids
	case kAuditRecord:
		o.wantMin = r.touches
	case kDisclosures:
		for _, i := range pl.byMRN[conn][r.mrn] {
			o.wantMin += pl.p.records[i].disclosed
		}
	}
	switch k {
	case kPatientRecords, kAuditRecord, kDisclosures:
		// These name a patient or filter the log; no audit row names the record.
	case kProof:
		r.touches++
	default:
		r.touches++
		r.disclosed++
	}
	return o
}

// absentID names a record no plan ever writes.
func absentID(conn int, n uint32) string { return fmt.Sprintf("w%d-absent-%d", conn, n) }

// totalOps counts the timed ops of the plan.
func (p *plan) totalOps() int {
	n := 0
	for _, ops := range p.timed {
		n += len(ops)
	}
	return n
}
