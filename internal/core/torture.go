// Crash-recovery torture harness.
//
// RunTorture drives a scripted clinical workload against a vault backed by a
// faultfs.Mem disk, enumerates every mutating filesystem operation the
// workload performs, and then re-runs the workload once per operation with a
// simulated power cut (or media fault) injected at that point. After each
// cut it mounts the surviving crash image, reopens the vault, and asserts
// the durability contract:
//
//   - Every operation that was acknowledged before the cut is present and
//     readable after recovery: acked Put/Correct versions decrypt to the
//     exact bodies that were written, acked Shreds stay shredded, acked
//     legal holds are still in force.
//   - Every acked Put, Correct and Shred has its custody event, in ack order
//     and carrying the acked version's ciphertext hash (the zero hash for a
//     shred): replay completes whatever the cut removed, once.
//   - VerifyAll passes: the WAL-rebuilt version set matches the Merkle
//     commitment log leaf for leaf, the audit hash chain verifies, and
//     every provenance custody chain verifies.
//   - No plaintext ever touches the medium: the crash image is scanned for
//     sentinel strings embedded in every record body, including shredded
//     ones. Once a SanitizeMedia is acked, no ciphertext of a record shredded
//     before it is anywhere on the image either.
//   - Recovery is idempotent: close and reopen the recovered vault a second
//     time and the same checks hold.
//
// Unacknowledged operations may or may not survive — an ack is a lower
// bound on durability, not an upper one — so the oracle only tracks acks.
//
// Beyond power cuts the harness injects non-crash faults: a failed fsync at
// every sync point (the WAL must wedge rather than ack on a lying disk),
// ENOSPC at every write, and single-bit rot on ciphertext reads from the
// block store and from meta.wal (the frame CRC and AEAD tag must turn silent
// corruption into a loud error, never wrong data).
//
// Known gap, on purpose: bit rot is injected only under read paths of a
// healthy vault, not during recovery itself — recovery treats an unreadable
// tail as torn, which is the designed response to a torn tail but
// indistinguishable from rot of the final segment.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// tortureEpoch is the fixed start of vault time in every torture run; all
// scenarios are deterministic given the same build.
var tortureEpoch = time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)

// TortureOpts configures a torture run.
type TortureOpts struct {
	// Shards is the cluster shard count the workload runs against; <= 1
	// tortures the classic single vault. Larger counts spread the scripted
	// records over per-shard WALs, blockstores, and audit chains, so every
	// crash point exercises multi-shard recovery.
	Shards int
	// Stride tests every Nth crash point; 0 means 1 (every point). CI smoke
	// runs use 5. Injection-point enumeration is always complete.
	Stride int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// TortureFailure is one violated invariant: which scenario, at which
// injection point, and what broke.
type TortureFailure struct {
	Scenario string // e.g. "crash-after/keep-none"
	Point    int    // mutating-op index the fault was injected at; -1 if n/a
	Detail   string
}

func (f TortureFailure) String() string {
	return fmt.Sprintf("%s point=%d: %s", f.Scenario, f.Point, f.Detail)
}

// TortureReport summarizes a run.
type TortureReport struct {
	InjectionPoints int // distinct mutating fs ops the workload performs
	CrashScenarios  int // power-cut simulations executed
	FaultScenarios  int // non-crash fault simulations (EIO/ENOSPC/bit rot)
	Failures        []TortureFailure
}

// Passed reports whether every invariant held in every scenario.
func (r TortureReport) Passed() bool { return len(r.Failures) == 0 }

// oracle records what the vault acknowledged, so recovery can be audited
// against it. Acked operations are owed durability. An operation that was
// *attempted* but not acked before the cut is ambiguous — its intent may
// have reached the WAL before the crash, so recovery may legitimately land
// it or lose it — and the oracle tolerates either outcome. Sequential use
// only.
type oracle struct {
	bodies    map[string][]string   // id -> body per acked version (index = number-1)
	hashes    map[string][][32]byte // id -> ciphertext hash per acked version
	cts       map[string][][]byte   // id -> ciphertext per acked version
	shredded  map[string]bool       // acked shreds
	sanitized map[string]bool       // acked shreds an acked SanitizeMedia followed
	holds     map[string]bool       // acked holds not yet acked-released

	shredTried   map[string]bool // Shred attempted (ack unknown at crash)
	releaseTried map[string]bool // ReleaseHold attempted
}

func newOracle() *oracle {
	return &oracle{
		bodies:       make(map[string][]string),
		hashes:       make(map[string][][32]byte),
		cts:          make(map[string][][]byte),
		shredded:     make(map[string]bool),
		sanitized:    make(map[string]bool),
		holds:        make(map[string]bool),
		shredTried:   make(map[string]bool),
		releaseTried: make(map[string]bool),
	}
}

// sentinel builds the unique plaintext marker embedded in every version
// body. The crash-image scan greps for sentinelPrefix.
const sentinelPrefix = "TORTURE-SENTINEL"

func sentinel(id string, version int) string {
	return fmt.Sprintf("%s-%s-v%d", sentinelPrefix, id, version)
}

func tortureRecord(id string, version int, at time.Time) ehr.Record {
	return ehr.Record{
		ID:        id,
		Patient:   "Pat Torture",
		MRN:       "mrn-" + id,
		Category:  ehr.CategoryClinical,
		Author:    "dr-house",
		CreatedAt: at,
		Title:     "torture note " + id,
		Body:      fmt.Sprintf("%s hypertension follow-up, dosage adjusted", sentinel(id, version)),
		Codes:     []string{"I10"},
	}
}

// openTorture opens (or reopens) the torture vault over fsys and registers
// the standard staff — authorization state is in-memory by design, so every
// mount re-registers it.
func openTorture(fsys faultfs.FS, shards int) (*Cluster, *clock.Virtual, error) {
	var seed [32]byte
	copy(seed[:], "medvault-torture-master-seed-32b")
	master, err := vcrypto.KeyFromBytes(seed[:])
	if err != nil {
		return nil, nil, err
	}
	vc := clock.NewVirtual(tortureEpoch)
	v, err := Open(Config{Name: "torture", Master: master, Clock: vc, Dir: "vault", FS: fsys, Shards: shards})
	if err != nil {
		return nil, nil, err
	}
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	if err := a.AddPrincipal("dr-house", "physician"); err != nil {
		v.Close()
		return nil, nil, err
	}
	if err := a.AddPrincipal("arch-lee", "archivist"); err != nil {
		v.Close()
		return nil, nil, err
	}
	return v, vc, nil
}

// runWorkload executes the scripted workload, recording each acknowledgment
// in o the moment the vault returns success. It aborts at the first error
// (the injected fault) and returns it; everything recorded before that
// moment was acked and is owed durability.
func runWorkload(v *Cluster, vc *clock.Virtual, o *oracle) error {
	ctx := context.Background()
	acked := func(rec ehr.Record, ver Version) error {
		o.bodies[rec.ID] = append(o.bodies[rec.ID], rec.Body)
		o.hashes[rec.ID] = append(o.hashes[rec.ID], ver.CtHash)
		ct, err := v.shardFor(rec.ID).ciphertext(ver.Ref)
		o.cts[rec.ID] = append(o.cts[rec.ID], ct)
		return err
	}
	put := func(id string) error {
		rec := tortureRecord(id, 1, vc.Now())
		ver, err := v.PutCtx(ctx, "dr-house", rec)
		if err != nil {
			return err
		}
		return acked(rec, ver)
	}
	correct := func(id string) error {
		rec := tortureRecord(id, len(o.bodies[id])+1, vc.Now())
		ver, err := v.CorrectCtx(ctx, "dr-house", rec)
		if err != nil {
			return err
		}
		return acked(rec, ver)
	}

	for i := 0; i < 4; i++ {
		if err := put(fmt.Sprintf("rec-%d", i)); err != nil {
			return err
		}
	}
	if err := correct("rec-1"); err != nil {
		return err
	}
	if err := correct("rec-2"); err != nil {
		return err
	}
	if err := v.PlaceHoldCtx(ctx, "arch-lee", "rec-3", "litigation"); err != nil {
		return err
	}
	o.holds["rec-3"] = true
	if err := v.PlaceHoldCtx(ctx, "arch-lee", "rec-2", "investigation"); err != nil {
		return err
	}
	o.holds["rec-2"] = true
	o.releaseTried["rec-2"] = true
	if err := v.ReleaseHoldCtx(ctx, "arch-lee", "rec-2"); err != nil {
		return err
	}
	delete(o.holds, "rec-2")
	// Age past the clinical retention period so shredding is permitted.
	vc.Advance(40 * 365 * 24 * time.Hour)
	// Warm every cache layer on the shred target: this read pulls rec-0's
	// plaintext DEK into the key cache and its ciphertext into the block
	// cache, so the shred below must invalidate both — and a crash injected
	// anywhere inside the shred exercises recovery with those caches gone.
	if _, _, err := v.GetCtx(ctx, "dr-house", "rec-0"); err != nil {
		return err
	}
	o.shredTried["rec-0"] = true
	if err := v.ShredCtx(ctx, "arch-lee", "rec-0"); err != nil {
		return err
	}
	o.shredded["rec-0"] = true
	// Read-after-shred probe: the caches warmed moments ago must not
	// resurrect the record. Anything but ErrShredded is a stale cache layer.
	if _, _, err := v.GetCtx(ctx, "dr-house", "rec-0"); !errors.Is(err, ErrShredded) {
		return fmt.Errorf("read-after-shred of rec-0: want ErrShredded, got %v", err)
	}
	// The first pass relocates every version out of meta.wal; the second,
	// after rec-2's shred, relocates the block-resident versions behind it
	// and empties the segment the first one wrote.
	if _, _, err := v.SanitizeMedia("arch-lee"); err != nil {
		return err
	}
	o.sanitized["rec-0"] = true
	o.shredTried["rec-2"] = true
	if err := v.ShredCtx(ctx, "arch-lee", "rec-2"); err != nil {
		return err
	}
	o.shredded["rec-2"] = true
	if _, _, err := v.SanitizeMedia("arch-lee"); err != nil {
		return err
	}
	o.sanitized["rec-2"] = true
	if err := put("rec-4"); err != nil {
		return err
	}
	return v.Close()
}

// check audits a recovered vault against the oracle: every acked version
// readable with its exact body, acked shreds shredded, acked holds held,
// and full integrity verification clean.
func (o *oracle) check(v *Cluster) error {
	ctx := context.Background()
	for id, bodies := range o.bodies {
		if o.shredded[id] {
			continue
		}
		for i, want := range bodies {
			rec, _, err := v.GetVersionCtx(ctx, "dr-house", id, uint64(i+1))
			if err != nil {
				// An in-flight shred's WAL intent may have survived the
				// crash; the record landing shredded is a valid outcome.
				if o.shredTried[id] && errors.Is(err, ErrShredded) {
					break
				}
				return fmt.Errorf("acked %s v%d unreadable after recovery: %w", id, i+1, err)
			}
			if rec.Body != want {
				return fmt.Errorf("acked %s v%d body mismatch after recovery", id, i+1)
			}
			// Read it again: the first read filled the block and DEK caches,
			// so this one is served from them — the cached path must return
			// the identical acked body, not a stale or cross-wired block.
			rec, _, err = v.GetVersionCtx(ctx, "dr-house", id, uint64(i+1))
			if err != nil {
				return fmt.Errorf("acked %s v%d unreadable on cached re-read: %w", id, i+1, err)
			}
			if rec.Body != want {
				return fmt.Errorf("acked %s v%d body mismatch on cached re-read", id, i+1)
			}
		}
	}
	for id := range o.shredded {
		if _, _, err := v.GetCtx(ctx, "dr-house", id); !errors.Is(err, ErrShredded) {
			return fmt.Errorf("acked shred of %s not honored after recovery: err=%v", id, err)
		}
	}
	held := make(map[string]bool)
	for _, h := range v.Retention().Holds() {
		held[h.Record] = true
	}
	for id := range o.holds {
		if !held[id] && !o.releaseTried[id] {
			return fmt.Errorf("acked legal hold on %s lost in recovery", id)
		}
	}
	if _, err := v.VerifyAll(nil, nil); err != nil {
		return fmt.Errorf("integrity verification failed after recovery: %w", err)
	}
	return o.checkCustody(v)
}

// checkCustody requires each acked record's custody chain to be its acked
// Put, Corrects and Shred in ack order, of the types apply appends and with
// the acked ciphertext hashes (zero for a shred), followed at most by the
// event of the one operation in flight at the cut: a new version or the
// attempted shred.
func (o *oracle) checkCustody(v *Cluster) error {
	for id, hashes := range o.hashes {
		chain, err := v.shardFor(id).prov.Chain(id)
		if err != nil {
			return fmt.Errorf("custody chain of %s after recovery: %w", id, err)
		}
		acked := len(hashes)
		if o.shredded[id] {
			acked++
		}
		if len(chain) < acked || len(chain) > acked+1 {
			return fmt.Errorf("%s has %d custody events after recovery, want its %d acked mutations' and at most one in flight", id, len(chain), acked)
		}
		for i, e := range chain {
			number, hash := uint64(i+1), [32]byte{}
			switch {
			case i < len(hashes):
				hash = hashes[i]
			case i < acked:
				number = 0 // the acked shred
			case e.Type == custodyType(0) && o.shredTried[id] && !o.shredded[id],
				e.Type == custodyType(number) && !slices.Contains(hashes, e.ContentHash):
				continue // the operation in flight landed
			default:
				return fmt.Errorf("custody event %d of %s after recovery is %s, not an operation in flight at the cut", i, id, e.Type)
			}
			if e.Type != custodyType(number) || e.ContentHash != hash {
				return fmt.Errorf("custody event %d of %s after recovery is %s %x, want the acked %s %x", i, id, e.Type, e.ContentHash[:4], custodyType(number), hash[:4])
			}
		}
	}
	return nil
}

// scanMedium greps a crash image once for what must not be on it: sentinel
// plaintext, since every byte on the medium is supposed to be ciphertext,
// HMAC tokens, or structural metadata; and the ciphertext of every record
// whose shred an acked SanitizeMedia followed.
func (o *oracle) scanMedium(img *faultfs.Mem) error {
	needles := map[string][]byte{"plaintext sentinel": []byte(sentinelPrefix)}
	for id := range o.sanitized {
		for i, ct := range o.cts[id] {
			needles[fmt.Sprintf("ciphertext of sanitized %s v%d", id, i+1)] = ct
		}
	}
	for path, data := range img.Dump() {
		for what, needle := range needles {
			if bytes.Contains(data, needle) {
				return fmt.Errorf("%s found on medium in %s", what, path)
			}
		}
	}
	return nil
}

// tortureIDs are the record IDs the scripted workload touches; the flight
// invariant maps their hashes back to IDs to compare against recovery.
var tortureIDs = []string{"rec-0", "rec-1", "rec-2", "rec-3", "rec-4"}

// flightTail is the decoded, persisted flight-recorder evidence found on a
// crash image: per workload record, how many successful mutations (put or
// correct) the tail claims were acknowledged, whether it records an
// acknowledged shred, and which acknowledged hold change it records last.
type flightTail struct {
	okMutations map[string]int  // record ID -> acked put/correct events persisted
	shredOK     map[string]bool // record ID -> acked shred event persisted
	held        map[string]bool // record ID -> last persisted acked hold op was a placement
}

// decodeFlightTail reads the persisted flight tail from the raw crash image
// — before recovery reopens the vault and starts a fresh segment — and
// audits the events themselves: the torn-tail rule must make them
// decodable, and no field may carry record plaintext.
func decodeFlightTail(img *faultfs.Mem) (flightTail, error) {
	ft := flightTail{okMutations: make(map[string]int), shredOK: make(map[string]bool), held: make(map[string]bool)}
	hashToID := make(map[string]string, len(tortureIDs))
	for _, id := range tortureIDs {
		hashToID[obs.HashRecordID(id)] = id
	}
	evs, err := ReadFlightTail(img, "vault")
	if err != nil {
		return ft, fmt.Errorf("persisted flight tail unreadable: %w", err)
	}
	for _, ev := range evs {
		for _, s := range ev.Strings() {
			if strings.Contains(s, sentinelPrefix) {
				return ft, fmt.Errorf("plaintext sentinel in persisted flight event %d (%s)", ev.Seq, ev.Kind)
			}
		}
		if ev.Outcome != "ok" {
			continue
		}
		id, known := hashToID[ev.Record]
		if !known {
			continue
		}
		switch ev.Kind {
		case "put", "correct":
			ft.okMutations[id]++
		case "shred":
			ft.shredOK[id] = true
		case "place_hold", "release_hold":
			// One record's events share a shard, so they decode in the
			// order they were acked: the last one is the newest state.
			ft.held[id] = ev.Kind == "place_hold"
		}
	}
	return ft, nil
}

// check compares the persisted flight evidence against the recovered vault.
// The flight sink never fsyncs, but it appends an acked-op event only after
// the op's own WAL fsync returned — so under the prefix crash model every
// persisted event describes an op whose WAL entry was already durable, and
// the tail must be a subset of what recovery rebuilds. By the oracle's acked
// order, a persisted hold placement stands unless a release followed it, and
// a persisted release is final (the workload never re-places a hold).
func (ft flightTail) check(v *Cluster, o *oracle) error {
	for id, n := range ft.okMutations {
		if ft.shredOK[id] {
			continue
		}
		got, err := v.VersionCount(id)
		if err != nil {
			// A shred whose own flight event did not persist may still have
			// been acked; the record landing shredded is consistent.
			if errors.Is(err, ErrShredded) {
				continue
			}
			return fmt.Errorf("flight tail claims %d acked mutations of %s but recovery lost it: %w", n, id, err)
		}
		if got < n {
			return fmt.Errorf("flight tail claims %d acked mutations of %s, recovered vault has %d versions", n, id, got)
		}
	}
	for id := range ft.shredOK {
		if _, _, err := v.GetCtx(context.Background(), "dr-house", id); !errors.Is(err, ErrShredded) {
			return fmt.Errorf("flight tail records acked shred of %s but recovered record is not shredded: err=%v", id, err)
		}
	}
	holds := make(map[string]bool)
	for _, h := range v.Retention().Holds() {
		holds[h.Record] = true
	}
	for id, placed := range ft.held {
		switch {
		case placed && !holds[id] && !o.releaseTried[id]:
			return fmt.Errorf("flight tail records acked hold on %s but recovery lost it", id)
		case !placed && holds[id]:
			return fmt.Errorf("flight tail records acked release of the hold on %s but recovery still holds it", id)
		}
	}
	return nil
}

// recoverAndCheck mounts the crash image, recovers, audits against the
// oracle and against the persisted flight tail, then closes and recovers a
// second time to prove recovery is idempotent. Finally it scans the medium
// for plaintext.
func recoverAndCheck(img *faultfs.Mem, o *oracle, shards int) error {
	// Decode the flight tail from the raw image first: the recovery open
	// below starts a fresh segment in the same directories.
	ft, err := decodeFlightTail(img)
	if err != nil {
		return err
	}
	for pass := 1; pass <= 2; pass++ {
		v, _, err := openTorture(img, shards)
		if err != nil {
			return fmt.Errorf("recovery pass %d failed: %w", pass, err)
		}
		if err := o.check(v); err != nil {
			v.Close()
			return fmt.Errorf("recovery pass %d: %w", pass, err)
		}
		if err := ft.check(v, o); err != nil {
			v.Close()
			return fmt.Errorf("recovery pass %d flight invariant: %w", pass, err)
		}
		if err := v.Close(); err != nil {
			return fmt.Errorf("recovery pass %d close: %w", pass, err)
		}
	}
	return o.scanMedium(img)
}

// enumerate runs the workload once, fault-free, over a recording injector
// and returns the full op trace. It also sanity-checks the harness itself:
// the clean image must recover and pass the oracle.
func enumerate(shards int) ([]faultfs.Op, error) {
	var trace []faultfs.Op
	recorder := func(op faultfs.Op) *faultfs.Fault {
		if op.Index >= 0 {
			trace = append(trace, op)
		}
		return nil
	}
	mem := faultfs.NewMem()
	fsys := faultfs.NewFaulty(mem, recorder)
	v, vc, err := openTorture(fsys, shards)
	if err != nil {
		return nil, fmt.Errorf("torture: clean open failed: %w", err)
	}
	o := newOracle()
	if err := runWorkload(v, vc, o); err != nil {
		return nil, fmt.Errorf("torture: clean workload failed: %w", err)
	}
	if err := recoverAndCheck(mem.CrashImage(faultfs.KeepAll), o, shards); err != nil {
		return nil, fmt.Errorf("torture: clean run fails its own oracle: %w", err)
	}
	return trace, nil
}

// runScenario executes the workload with the given injector, takes a crash
// image under keep, and audits recovery. A workload error is expected (the
// injected fault surfacing); what matters is that everything acked before
// it survives. Panics anywhere in the scenario are converted to failures.
func runScenario(name string, point int, inject faultfs.Injector, keep faultfs.KeepPolicy, shards int) (fail *TortureFailure) {
	defer func() {
		if r := recover(); r != nil {
			fail = &TortureFailure{Scenario: name, Point: point, Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	mem := faultfs.NewMem()
	fsys := faultfs.NewFaulty(mem, inject)
	o := newOracle()
	v, vc, err := openTorture(fsys, shards)
	if err == nil {
		// The workload aborts at the injected fault; acks recorded up to
		// that point are the durability obligation. The faulted vault is
		// abandoned un-Closed, exactly as a power cut would leave it.
		_ = runWorkload(v, vc, o)
	}
	if err := recoverAndCheck(mem.CrashImage(keep), o, shards); err != nil {
		return &TortureFailure{Scenario: name, Point: point, Detail: err.Error()}
	}
	return nil
}

// crashMatrix returns the scenarios exercised at one injection point.
func crashMatrix(op faultfs.Op) []struct {
	name   string
	inject faultfs.Injector
	keep   faultfs.KeepPolicy
} {
	i := op.Index
	m := []struct {
		name   string
		inject faultfs.Injector
		keep   faultfs.KeepPolicy
	}{
		{"crash-before/keep-none", faultfs.CrashBefore(i), faultfs.KeepNone},
		{"crash-after/keep-none", faultfs.CrashAfter(i), faultfs.KeepNone},
		{"crash-after/keep-all", faultfs.CrashAfter(i), faultfs.KeepAll},
		{"crash-after/keep-half", faultfs.CrashAfter(i), faultfs.KeepHalf},
	}
	if op.Kind == faultfs.OpWrite {
		m = append(m, struct {
			name   string
			inject faultfs.Injector
			keep   faultfs.KeepPolicy
		}{"torn-write/keep-all", faultfs.TornWriteAt(i), faultfs.KeepAll})
	}
	return m
}

// armedRot corrupts the next ciphertext read (see CiphertextFile) after arm().
type armedRot struct {
	armed bool
	skip  int // reads to let through before corrupting
	seen  int
	fired int // corruptions injected
}

func (a *armedRot) inject(op faultfs.Op) *faultfs.Fault {
	if !a.armed || op.Kind != faultfs.OpRead || !CiphertextFile(op.Path) {
		return nil
	}
	if a.seen < a.skip {
		a.seen++
		return nil
	}
	a.armed = false
	a.fired++
	return &faultfs.Fault{CorruptRead: true}
}

func (a *armedRot) arm(skip int) { a.armed, a.skip, a.seen = true, skip, 0 }

// CiphertextFile reports whether path is a file a version's ciphertext is
// read from: a block store segment, or meta.wal until checkpoint.
func CiphertextFile(path string) bool {
	return strings.Contains(path, "/blocks/") || strings.Contains(path, "/meta.wal")
}

// runBitRot exercises read-path corruption detection: a clean workload is
// written and recovered, one more record is put, then each ciphertext read
// under GetVersion, from the block store and from meta.wal, is flipped by
// one bit. Every flip must fire, and the vault must return an error or the
// exact correct body. Returns the number of scenarios run and any failures.
func runBitRot(shards int) (int, []TortureFailure) {
	ctx := context.Background()
	var fails []TortureFailure
	mem := faultfs.NewMem()
	o := newOracle()
	{
		v, vc, err := openTorture(mem, shards)
		if err != nil {
			return 0, []TortureFailure{{Scenario: "bit-rot/setup", Point: -1, Detail: err.Error()}}
		}
		if err := runWorkload(v, vc, o); err != nil {
			return 0, []TortureFailure{{Scenario: "bit-rot/setup", Point: -1, Detail: err.Error()}}
		}
	}
	rot := &armedRot{}
	fsys := faultfs.NewFaulty(mem, rot.inject)
	v, vc, err := openTorture(fsys, shards)
	if err != nil {
		return 0, []TortureFailure{{Scenario: "bit-rot/reopen", Point: -1, Detail: err.Error()}}
	}
	defer v.Close()
	rec := tortureRecord("rot-0", 1, vc.Now())
	ver, err := v.PutCtx(ctx, "dr-house", rec)
	if err != nil {
		return 0, []TortureFailure{{Scenario: "bit-rot/setup", Point: -1, Detail: err.Error()}}
	}
	o.bodies[rec.ID], o.hashes[rec.ID] = []string{rec.Body}, [][32]byte{ver.CtHash}

	scenarios := 0
	resident := map[bool]int{} // scenarios by whether the ciphertext is inline in meta.wal
	for id, bodies := range o.bodies {
		if o.shredded[id] {
			continue
		}
		st, _ := v.shardFor(id).lookup(id)
		for i, want := range bodies {
			inWAL := st.at(uint64(i)+1).segment == walSegment
			// skip=0 corrupts the frame header read, skip=1 the payload.
			for skip := 0; skip <= 1; skip++ {
				rot.arm(skip)
				scenarios++
				resident[inWAL]++
				rec, _, err := v.GetVersionCtx(ctx, "dr-house", id, uint64(i+1))
				if err == nil && rec.Body != want {
					fails = append(fails, TortureFailure{
						Scenario: fmt.Sprintf("bit-rot/read-%d", skip),
						Point:    -1,
						Detail:   fmt.Sprintf("%s v%d: corrupted read returned wrong data without error", id, i+1),
					})
				}
			}
		}
	}
	rot.armed = false
	if rot.fired != scenarios || resident[true] == 0 || resident[false] == 0 {
		fails = append(fails, TortureFailure{Scenario: "bit-rot/coverage", Point: -1,
			Detail: fmt.Sprintf("%d of %d armed rots fired (%d on meta.wal, %d on block store ciphertext; want both)", rot.fired, scenarios, resident[true], resident[false])})
	}
	// The medium itself was never corrupted — only reads in flight — so
	// with the injector disarmed the vault must verify clean end to end.
	if _, err := v.VerifyAll(nil, nil); err != nil {
		fails = append(fails, TortureFailure{Scenario: "bit-rot/aftermath", Point: -1,
			Detail: fmt.Sprintf("vault does not verify after transient read faults: %v", err)})
	}
	if err := o.checkCustody(v); err != nil {
		fails = append(fails, TortureFailure{Scenario: "bit-rot/aftermath", Point: -1, Detail: err.Error()})
	}
	return scenarios, fails
}

// RunTorture executes the full torture schedule and reports.
func RunTorture(opts TortureOpts) (TortureReport, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	stride := max(opts.Stride, 1)
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}

	var rep TortureReport
	trace, err := enumerate(shards)
	if err != nil {
		return rep, err
	}
	rep.InjectionPoints = len(trace)
	logf("enumerated %d injection points (stride %d)", len(trace), stride)

	syncs, writes := 0, 0
	for idx, op := range trace {
		if op.Kind == faultfs.OpSync {
			syncs++
		}
		if op.Kind == faultfs.OpWrite || op.Kind == faultfs.OpWriteFile {
			writes++
		}
		if idx%stride != 0 {
			continue
		}
		for _, sc := range crashMatrix(op) {
			rep.CrashScenarios++
			if f := runScenario(sc.name, op.Index, sc.inject, sc.keep, shards); f != nil {
				rep.Failures = append(rep.Failures, *f)
				logf("FAIL %s", f)
			}
		}
	}
	logf("crash matrix done: %d scenarios", rep.CrashScenarios)

	// Failed fsync at every sync point: the WAL wedges, blockstore syncs
	// surface the error to the caller — either way nothing acked may be
	// lost, and nothing may be acked after the lie.
	for n := 0; n < syncs; n += stride {
		rep.FaultScenarios++
		if f := runScenario("eio-sync/keep-all", n, faultfs.FailNthSync(n, faultfs.ErrInjected), faultfs.KeepAll, shards); f != nil {
			rep.Failures = append(rep.Failures, *f)
			logf("FAIL %s", f)
		}
	}
	// ENOSPC at every write point.
	seen := 0
	for _, op := range trace {
		if op.Kind != faultfs.OpWrite && op.Kind != faultfs.OpWriteFile {
			continue
		}
		if seen%stride == 0 {
			rep.FaultScenarios++
			if f := runScenario("enospc/keep-all", op.Index, faultfs.FailAt(op.Index, faultfs.ErrNoSpace), faultfs.KeepAll, shards); f != nil {
				rep.Failures = append(rep.Failures, *f)
				logf("FAIL %s", f)
			}
		}
		seen++
	}
	logf("fault matrix done: %d scenarios (%d syncs, %d writes in trace)", rep.FaultScenarios, syncs, writes)

	n, fails := runBitRot(shards)
	rep.FaultScenarios += n
	rep.Failures = append(rep.Failures, fails...)
	logf("bit-rot done: %d scenarios", n)

	return rep, nil
}
