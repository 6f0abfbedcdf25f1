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
//	leaves   component locks inside blockstore/audit/merkle/index/keystore/
//	         retention/authz/provenance, plus regMu guarding the records
//	         slice. All are acquired last and never held across a call into
//	         another layer, but for the audit log's, held while it writes
//	         an event to meta.wal (audit → wal), so chain order is WAL order.
//	recno    the mutex of each recno.Table: the shard's record table (shared
//	         by the registry, key store, custody tracker and index) and its
//	         names table. It is a leaf below regMu, ks.mu, tr.mu and SSE.mu,
//	         which look a number up while holding their own lock, and
//	         nothing is acquired while holding it.
//
// Lock order: gate → stripe → leaf locks → recno. Nothing acquires a stripe
// while holding a leaf lock, nothing acquires two stripes at once, and regMu
// is held across nothing but a recno lookup.
//
// No lock orders commits: meta.wal does. A version's Merkle append is its WAL
// entry's durable hook, run in sequence order once the entry is fsynced, so
// leaf order is WAL order, the order recovery replays leaves in, and no
// signed head covers a version a crash can lose.
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

// admit lets one operation in until release — exclusively for a whole-vault
// pass, which drains in-flight operations first. It fails with ErrClosed
// once shut has run; since the lock is held for the operation's whole
// duration, an admitted operation never sees a closing vault's half-released
// resources. Only the op envelope (envelope.go) calls it.
func (g *opGate) admit(exclusive bool) error {
	if exclusive {
		g.mu.Lock()
	} else {
		g.mu.RLock()
	}
	if g.closed {
		g.release(exclusive)
		return ErrClosed
	}
	return nil
}

// release lets go of what admit (or a successful shut, exclusively) took.
func (g *opGate) release(exclusive bool) {
	if exclusive {
		g.mu.Unlock()
	} else {
		g.mu.RUnlock()
	}
}

// shut marks the gate closed, first draining in-flight operations. It
// returns false if the gate was already closed. The caller holds the gate
// exclusively when shut returns true and must release it with release(true).
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
