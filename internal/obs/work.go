package obs

import "sync/atomic"

// WorkKind names a unit of the work a vault does per record or per event
// when it opens or sweeps a medium — work a test pins exactly, but no
// dashboard needs as a series.
type WorkKind int

// The units of reopen and sweep work.
const (
	WorkAuditDecode WorkKind = iota // one stored audit event decoded
	WorkWALReplay                   // one metadata WAL entry replayed
	WorkDecrypt                     // one record version decrypted
	WorkSSEToken                    // one search token derived
)

var workHook atomic.Pointer[func(WorkKind)]

// SetWorkHook makes fn hear of every unit of work CountWork reports, until
// it is called again (nil: nobody hears). Tests install it around the
// operation they count; it is process-wide, so they must not run in
// parallel with other vault work.
func SetWorkHook(fn func(WorkKind)) {
	if fn == nil {
		workHook.Store(nil)
		return
	}
	workHook.Store(&fn)
}

// CountWork reports one unit of kind to the hook, if one is installed.
func CountWork(kind WorkKind) {
	if fn := workHook.Load(); fn != nil {
		(*fn)(kind)
	}
}
