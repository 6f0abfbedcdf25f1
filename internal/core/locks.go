package core

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Concurrency architecture. The vault used to serialize every operation
// behind one RWMutex; it now layers four lock kinds so operations on
// different records commute:
//
//	gate     an operation gate: every public operation holds it shared for
//	         its whole duration; Close, VerifyAll, and SanitizeMedia hold it
//	         exclusively. Closing therefore *waits* for in-flight operations
//	         instead of racing them (the old checkOpen TOCTOU), and
//	         whole-vault sweeps see a frozen vault.
//	stripe   per-record RWMutexes, record ID hashed onto one of numStripes
//	         stripes. Mutations (Put/Correct/Shred/holds/Import) hold the
//	         record's stripe exclusively; reads (Get/GetVersion/History/
//	         Export/proofs) hold it shared. Operations on records in
//	         different stripes run fully in parallel.
//	commitMu the commit sequencer: taken only by Vault.commit (commit.go),
//	         around {WAL enqueue of one entry, Merkle append of a version's
//	         leaf}, so the WAL's entry order always equals the commitment
//	         log's leaf order — recovery replays leaves in WAL order, so a
//	         divergence would break every inclusion proof after a restart.
//	         Every entry kind passes through it, so holding it is standing at
//	         an entry boundary. The fsync wait and apply happen after release;
//	         sealing and blockstore appends are outside it entirely.
//	leaves   component locks inside blockstore/audit/merkle/index/keystore/
//	         retention/authz/provenance, plus regMu guarding the records
//	         map. All are acquired last and never held across a call into
//	         another layer.
//
// Lock order: gate → stripe → commitMu → leaf locks. Nothing acquires a
// stripe while holding commitMu or a leaf lock, nothing acquires two stripes
// at once, and regMu is never held across any other acquisition.
const numStripes = 64

// opGate admits operations while the vault is open and lets exclusive
// passes (Close, VerifyAll, SanitizeMedia) drain in-flight operations
// before proceeding.
type opGate struct {
	mu     sync.RWMutex
	closed bool
	// closedFlag mirrors closed for lock-free readers (Health must answer
	// while Close is draining, when the gate's lock is unavailable).
	closedFlag atomic.Bool
}

// begin admits one operation; the caller must pair it with end. It fails
// with ErrClosed once close has run — and because the shared lock is held
// for the operation's whole duration, an admitted operation can never
// observe a closing vault's half-released resources.
func (g *opGate) begin() error {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return ErrClosed
	}
	return nil
}

// end releases an operation admitted by begin.
func (g *opGate) end() { g.mu.RUnlock() }

// beginExclusive admits a whole-vault pass, waiting for every in-flight
// operation to finish and blocking new ones until endExclusive.
func (g *opGate) beginExclusive() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	return nil
}

// endExclusive releases an exclusive pass.
func (g *opGate) endExclusive() { g.mu.Unlock() }

// shut marks the gate closed, first draining in-flight operations. It
// returns false if the gate was already closed. The caller holds the gate
// exclusively when shut returns true and must release it with endExclusive.
func (g *opGate) shut() bool {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return false
	}
	g.closed = true
	g.closedFlag.Store(true)
	return true
}

// isShut reports whether shut has run, without touching the gate's lock.
func (g *opGate) isShut() bool { return g.closedFlag.Load() }

// lockStripes is the per-record lock table. Striping bounds memory at a
// fixed table instead of a lock per record; two records colliding on a
// stripe serialize against each other, which is correctness-neutral.
type lockStripes struct {
	stripes [numStripes]sync.RWMutex
}

// stripeIndex maps a record ID onto its stripe.
func stripeIndex(id string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return h.Sum32() % numStripes
}

// forRecord returns the stripe guarding the record ID.
func (s *lockStripes) forRecord(id string) *sync.RWMutex {
	return &s.stripes[stripeIndex(id)]
}
