package sim

import (
	"fmt"
	"math/rand"

	"medvault/internal/ehr"
)

// gen emits a deterministic stream of steps from a seed and the model's
// current state. It is deliberately adversarial: alongside ordinary
// clinician traffic it produces duplicate IDs, malformed records, unknown
// actors, wrong-role access, category-changing corrections, probes of
// missing and shredded records, backdated records that expire retention,
// break-glass sessions with mid-session revocation, and — in durable mode —
// power cuts, out-of-space faults, and bit rot.
//
// The multi-worker mode interleaves W logical writers: one scheduler RNG
// picks which worker acts each step, and each worker creates records in its
// own ID namespace while reads, searches, and audits roam across all of
// them. Execution stays sequential, so the reference model remains exact.
type gen struct {
	rng     *rand.Rand
	plan    Plan
	seq     int   // uniquifier for payloads ("case0042")
	nextID  []int // per-worker record counter
	conds   []string
	cats    []string
	pending []Step // queued follow-up probes (read-after-shred etc.)
}

func newGen(plan Plan) *gen {
	cats := make([]string, 0, 5)
	for _, c := range ehr.Categories() {
		cats = append(cats, string(c))
	}
	return &gen{
		rng:    rand.New(rand.NewSource(plan.Seed)),
		plan:   plan,
		nextID: make([]int, plan.Workers),
		conds:  ehr.ConditionNames(),
		cats:   cats,
	}
}

// mrnPool is the patient population: small enough that records share
// patients, so disclosure accounting aggregates across records.
var mrnPool = []string{"MRN-1001", "MRN-1002", "MRN-1003", "MRN-1004", "MRN-1005"}

// pick returns a random element of xs.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// pct rolls a percentage.
func (g *gen) pct(p int) bool { return g.rng.Intn(100) < p }

// anyRecord picks an existing record ID (shredded included); ok is false
// when none exist yet.
func (g *gen) anyRecord(m *Model) (string, bool) {
	ids := m.allIDs()
	if len(ids) == 0 {
		return "", false
	}
	return pick(g.rng, ids), true
}

// liveRecord picks a live record ID.
func (g *gen) liveRecord(m *Model) (string, bool) {
	ids := m.liveIDs()
	if len(ids) == 0 {
		return "", false
	}
	return pick(g.rng, ids), true
}

// readActor weights toward legitimate clinical readers but includes
// wrong-role and unknown principals.
func (g *gen) readActor() string {
	r := g.rng.Intn(100)
	switch {
	case r < 40:
		return "dr-house"
	case r < 65:
		return "nurse-joy"
	case r < 80:
		return "clerk-bob"
	case r < 88:
		return "officer-kim" // audit role: no read permission
	case r < 95:
		return "arch-lee" // archivist: no read permission
	default:
		return "dr-mystery" // never registered
	}
}

// push queues a follow-up step to be emitted before the next random roll.
// Queued steps land in the trace like any other, so replay and shrinking
// need no special handling.
func (g *gen) push(s Step) { g.pending = append(g.pending, s) }

// next produces the next step given the model's current state. Queued
// follow-up probes drain first.
func (g *gen) next(m *Model) Step {
	if len(g.pending) > 0 {
		s := g.pending[0]
		g.pending = g.pending[1:]
		return s
	}
	total := 88
	if g.plan.Durable {
		total += 4 // crash + enospc
	}
	roll := g.rng.Intn(total)
	switch {
	case roll < 16:
		return g.genPut(m)
	case roll < 29:
		return g.genGet(m)
	case roll < 34:
		return g.genGetVersion(m)
	case roll < 38:
		return g.genHistory(m)
	case roll < 47:
		return g.genCorrect(m)
	case roll < 53:
		return g.genSearch(false)
	case roll < 56:
		return g.genSearch(true)
	case roll < 61:
		return g.genShred(m)
	case roll < 65:
		return g.genPlaceHold(m)
	case roll < 68:
		return g.genReleaseHold(m)
	case roll < 72:
		return g.genBreakGlass()
	case roll < 74:
		return Step{Op: OpRevoke, Actor: pick(g.rng, staffActors())}
	case roll < 77:
		return g.genDisclosures()
	case roll < 80:
		return g.genPatientRecs()
	case roll < 86:
		return g.genAdvance()
	case roll < 88:
		return Step{Op: OpVerify}
	case roll < 90:
		n := 0
		if g.pct(50) {
			n = 1 + g.rng.Intn(8)
		}
		return Step{Op: OpCrash, N: n}
	default:
		return Step{Op: OpENOSPC, N: g.rng.Intn(30)}
	}
}

// staffActors returns the registered principals, sorted for determinism.
func staffActors() []string {
	return []string{"arch-lee", "clerk-bob", "dr-house", "nurse-joy", "officer-kim"}
}

// payload fills in a fresh title/body/codes set. Bodies carry a condition
// (shared across records — multi-hit searches) and a unique case token
// (single-hit searches).
func (g *gen) payload(s *Step) {
	g.seq++
	cond := pick(g.rng, g.conds)
	s.Title = fmt.Sprintf("%s note %04d", s.Category, g.seq)
	s.Body = fmt.Sprintf("%s presenting with %s, case%04d", s.Patient, cond, g.seq)
	if g.pct(60) {
		s.Codes = []string{pick(g.rng, icdCodes)}
		if g.pct(30) {
			s.Codes = append(s.Codes, pick(g.rng, icdCodes))
		}
	}
}

var icdCodes = []string{"A01.1", "B20", "C34.9", "E11.9", "I10", "J45.0", "N18.3"}

// writerFor returns the natural author for a category (who may still be
// denied — e.g. nobody's roles cover occupational).
func (g *gen) writerFor(category string) string {
	r := g.rng.Intn(100)
	switch {
	case r < 10:
		return "dr-mystery"
	case r < 25:
		return pick(g.rng, staffActors()) // often the wrong role
	case category == string(ehr.CategoryBilling):
		return "clerk-bob"
	default:
		return "dr-house"
	}
}

func (g *gen) genPut(m *Model) Step {
	w := g.rng.Intn(g.plan.Workers)
	s := Step{Op: OpPut}
	if id, ok := g.anyRecord(m); ok && g.pct(10) {
		s.Record = id // duplicate (or resurrect-after-shred) attempt
	} else {
		s.Record = fmt.Sprintf("w%d-r%04d", w, g.nextID[w])
		g.nextID[w]++
	}
	mrn := pick(g.rng, mrnPool)
	s.MRN = mrn
	s.Patient = "patient-" + mrn[len(mrn)-4:]
	s.Category = pick(g.rng, g.cats)
	s.Actor = g.writerFor(s.Category)
	g.payload(&s)
	switch r := g.rng.Intn(100); {
	case r < 4:
		s.MRN = "" // malformed: no patient identifier
	case r < 8:
		s.Category = "astrology" // malformed: unknown category
	case r < 24:
		// Backdated import: old enough to outlive the 6–7y clinical/lab/
		// imaging/billing schedules (occupational's 30y usually survives).
		s.Backdate = (6+g.rng.Intn(3))*365*24 + g.rng.Intn(1000)
	case r < 27:
		s.Backdate = (29 + g.rng.Intn(3)) * 365 * 24 // outlives even occupational
	}
	return s
}

func (g *gen) genGet(m *Model) Step {
	s := Step{Op: OpGet, Actor: g.readActor()}
	id, ok := g.anyRecord(m)
	if !ok || g.pct(10) {
		if g.pct(40) {
			// Probe the ID the next Put in some worker's namespace will
			// create. Today it is not-found; once that Put lands, a later
			// read of the same ID must succeed — a remembered "missing"
			// answer would diverge from the model.
			w := g.rng.Intn(g.plan.Workers)
			s.Record = fmt.Sprintf("w%d-r%04d", w, g.nextID[w])
		} else {
			s.Record = "w0-r9999" // unknown-record probe
		}
		return s
	}
	s.Record = id
	if g.plan.Durable && g.pct(8) {
		s.Rot = true
	}
	return s
}

func (g *gen) genGetVersion(m *Model) Step {
	s := Step{Op: OpGetVersion, Actor: g.readActor()}
	id, ok := g.anyRecord(m)
	if !ok {
		s.Record, s.Version = "w0-r9999", 1
		return s
	}
	s.Record = id
	// 0 and len+1 are out-of-range probes; the rest are valid history reads.
	s.Version = uint64(g.rng.Intn(len(m.records[id].Versions) + 2))
	return s
}

func (g *gen) genHistory(m *Model) Step {
	s := Step{Op: OpHistory, Actor: g.readActor()}
	if id, ok := g.anyRecord(m); ok && !g.pct(10) {
		s.Record = id
	} else {
		s.Record = "w0-r9999"
	}
	return s
}

func (g *gen) genCorrect(m *Model) Step {
	s := Step{Op: OpCorrect}
	switch r := g.rng.Intn(100); {
	case r < 70:
		s.Actor = "dr-house"
	case r < 85:
		s.Actor = "nurse-joy" // nurses may not correct
	default:
		s.Actor = "clerk-bob" // billing clerks may not correct either
	}
	id, ok := g.liveRecord(m)
	if !ok || g.pct(12) {
		s.Record = "w0-r9999"
		s.Category = pick(g.rng, g.cats)
	} else {
		s.Record = id
		rec := m.records[id]
		s.Category = rec.Category
		if g.pct(20) {
			// Identity-change attempt: corrections must not recategorize.
			for s.Category == rec.Category {
				s.Category = pick(g.rng, g.cats)
			}
		}
		s.MRN = rec.MRN
		s.Patient = rec.Patient
	}
	if s.MRN == "" {
		s.MRN = pick(g.rng, mrnPool)
	}
	g.payload(&s)
	return s
}

func (g *gen) genSearch(conjunctive bool) Step {
	s := Step{Op: OpSearch, Actor: g.readActor()}
	kw := func() string {
		switch r := g.rng.Intn(100); {
		case r < 55:
			return pick(g.rng, g.conds)
		case r < 80:
			if g.seq == 0 {
				return "case0000"
			}
			return fmt.Sprintf("case%04d", 1+g.rng.Intn(g.seq))
		case r < 90:
			return pick(g.rng, icdCodes)
		default:
			return "zzyzx" // matches nothing
		}
	}
	s.Keywords = []string{kw()}
	if conjunctive {
		s.Op = OpSearchAll
		s.Keywords = append(s.Keywords, kw())
	}
	return s
}

func (g *gen) genShred(m *Model) Step {
	s := Step{Op: OpShred}
	switch r := g.rng.Intn(100); {
	case r < 70:
		s.Actor = "arch-lee"
	case r < 90:
		s.Actor = "dr-house" // physicians may not destroy records
	default:
		s.Actor = "dr-mystery"
	}
	if id, ok := g.anyRecord(m); ok && !g.pct(10) {
		s.Record = id
	} else {
		s.Record = "w0-r9999"
	}
	faulted := g.plan.Durable && g.pct(20)
	if faulted {
		// Crash-during-shred: arm a media fault to fire within the next few
		// mutating fs ops — typically inside this shred's WAL append — so
		// recovery replays (or legitimately loses) a half-landed shred. The
		// shred itself moves to the queue, after the arming step.
		g.push(s)
	}
	// Read-after-shred probe: immediately read what was (maybe) just
	// destroyed. If the shred succeeded, any cache layer still serving the
	// record is a divergence; if it was denied or blocked by retention, the
	// read is ordinary traffic the model predicts either way.
	g.push(Step{Op: OpGet, Actor: "dr-house", Record: s.Record})
	if g.pct(35) {
		// Follow with the deep sweep: VerifyAll's secure-deletion check
		// proves the key is unobtainable and no plaintext DEK stayed cached.
		g.push(Step{Op: OpVerify})
	}
	if faulted {
		return Step{Op: OpENOSPC, N: g.rng.Intn(4)}
	}
	return s
}

func (g *gen) genPlaceHold(m *Model) Step {
	s := Step{Op: OpPlaceHold, Reason: "litigation hold"}
	if g.pct(70) {
		s.Actor = "arch-lee"
	} else {
		s.Actor = pick(g.rng, []string{"nurse-joy", "clerk-bob", "dr-mystery"})
	}
	if g.pct(8) {
		s.Reason = "" // invalid: holds need a reason
	}
	if id, ok := g.liveRecord(m); ok && !g.pct(12) {
		s.Record = id
	} else {
		s.Record = "w0-r9999"
	}
	return s
}

func (g *gen) genReleaseHold(m *Model) Step {
	s := Step{Op: OpReleaseHold}
	if g.pct(75) {
		s.Actor = "arch-lee"
	} else {
		s.Actor = pick(g.rng, []string{"dr-house", "dr-mystery"})
	}
	if held := m.heldIDs(); len(held) > 0 && g.pct(70) {
		s.Record = pick(g.rng, held)
	} else if id, ok := g.anyRecord(m); ok && g.pct(60) {
		s.Record = id // releasing a hold that was never placed succeeds
	} else {
		s.Record = "w0-r9999" // ...as does releasing on an unknown record
	}
	return s
}

func (g *gen) genBreakGlass() Step {
	s := Step{Op: OpBreakGlass, Reason: "emergency treatment", Minutes: 30 + g.rng.Intn(270)}
	switch r := g.rng.Intn(100); {
	case r < 40:
		s.Actor = "nurse-joy" // elevates her to write/correct
	case r < 65:
		s.Actor = "clerk-bob" // elevates him into clinical reads
	case r < 80:
		s.Actor = "dr-house"
	case r < 90:
		s.Actor = "officer-kim"
	default:
		s.Actor = "dr-mystery" // unknown principals get no emergency access
	}
	if g.pct(8) {
		s.Reason = ""
	}
	return s
}

func (g *gen) genDisclosures() Step {
	s := Step{Op: OpDisclosures, MRN: pick(g.rng, mrnPool)}
	switch r := g.rng.Intn(100); {
	case r < 70:
		s.Actor = auditor
	case r < 90:
		s.Actor = "dr-house" // physicians may not run audits
	default:
		s.Actor = "dr-mystery"
	}
	if g.pct(8) {
		s.MRN = "MRN-9999"
	} else if g.pct(5) {
		s.MRN = ""
	}
	return s
}

func (g *gen) genPatientRecs() Step {
	return Step{Op: OpPatientRecs, Actor: g.readActor(), MRN: pick(g.rng, mrnPool)}
}

func (g *gen) genAdvance() Step {
	if g.pct(15) {
		// A multi-year jump: retention periods genuinely elapse, break-glass
		// grants certainly expire.
		return Step{Op: OpAdvance, Hours: 24 * 365 * (1 + g.rng.Intn(7))}
	}
	return Step{Op: OpAdvance, Hours: 1 + g.rng.Intn(72)}
}
