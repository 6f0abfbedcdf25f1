// Package retention enforces record retention schedules and legal holds.
//
// The regulations the paper surveys impose both directions of the retention
// arrow: records must be kept (OSHA 29 CFR 1910.1020: employee exposure and
// medical records for at least 30 years) and must then be disposed of
// securely (HIPAA §164.310(d)(2)(i), EU 95/46/EC Article 6's bound on
// retention period). This package answers, per record, the two questions the
// vault asks: "may this record be destroyed yet?" and "which records are now
// past their retention period?" — with legal holds overriding expiry, since
// litigation preservation trumps disposition schedules.
package retention

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"medvault/internal/clock"
)

// Errors returned by the package.
var (
	// ErrRetentionActive indicates the record's mandatory retention period
	// has not elapsed: destruction would itself be a compliance violation.
	ErrRetentionActive = errors.New("retention: retention period still active")
	// ErrOnHold indicates an active legal hold blocks disposition.
	ErrOnHold = errors.New("retention: record under legal hold")
	// ErrUnknownRecord indicates the record is not tracked.
	ErrUnknownRecord = errors.New("retention: unknown record")
	// ErrNoPolicy indicates no policy exists for the record's category.
	ErrNoPolicy = errors.New("retention: no policy for category")
)

// Policy sets the retention period for one record category.
type Policy struct {
	Category string
	// Period is the minimum time a record must be retained after creation.
	Period time.Duration
}

// Year approximates a regulatory year for schedule arithmetic.
const Year = 365 * 24 * time.Hour

// StandardPolicies returns the schedule used by the examples and
// experiments, mirroring the regulations the paper cites: OSHA's 30-year
// floor for exposure/occupational records, and common 6- and 7-year HIPAA
// state-law schedules for clinical and billing records.
func StandardPolicies() []Policy {
	return []Policy{
		{Category: "occupational", Period: 30 * Year}, // OSHA 29 CFR 1910.1020(d)(1)(ii)
		{Category: "clinical", Period: 6 * Year},
		{Category: "lab", Period: 6 * Year},
		{Category: "imaging", Period: 7 * Year},
		{Category: "billing", Period: 7 * Year},
	}
}

// Hold is an active legal hold on a record.
type Hold struct {
	Record string
	Reason string
	Placed time.Time
}

// entry tracks one record's retention state: its creation instant in Unix
// nanoseconds (the range the vault persists) and its category's policy, by
// position in Manager.policies.
type entry struct {
	created int64
	policy  uint32
}

// Manager tracks retention state for all records in a vault.
// Safe for concurrent use.
type Manager struct {
	mu        sync.RWMutex
	policies  []Policy          // in the order categories were first set
	policyNum map[string]uint32 // category -> position in policies
	records   map[string]entry
	holds     map[string]Hold
	clk       clock.Clock
}

// NewManager returns a Manager reading time from clk (nil means the system
// clock).
func NewManager(clk clock.Clock) *Manager {
	if clk == nil {
		clk = clock.System{}
	}
	return &Manager{
		policyNum: make(map[string]uint32),
		records:   make(map[string]entry),
		holds:     make(map[string]Hold),
		clk:       clk,
	}
}

// SetPolicy registers or replaces the policy for a category. A replaced
// period applies to the records already tracked under the category.
func (m *Manager) SetPolicy(p Policy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.policyNum[p.Category]; ok {
		m.policies[n] = p
		return
	}
	m.policyNum[p.Category] = uint32(len(m.policies))
	m.policies = append(m.policies, p)
}

// PolicyFor returns the policy governing a category.
func (m *Manager) PolicyFor(category string) (Policy, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, ok := m.policyNum[category]
	if !ok {
		return Policy{}, fmt.Errorf("%w: %q", ErrNoPolicy, category)
	}
	return m.policies[n], nil
}

// Track registers a record under its category's policy. The category must
// have a policy: an untracked record could otherwise be destroyed at will.
func (m *Manager) Track(id, category string, created time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.policyNum[category]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoPolicy, category)
	}
	m.records[id] = entry{created: created.UnixNano(), policy: n}
	return nil
}

// expiresLocked is when e's retention period ends; the caller holds m.mu.
func (m *Manager) expiresLocked(e entry) time.Time {
	return time.Unix(0, e.created).UTC().Add(m.policies[e.policy].Period)
}

// Forget removes a record from tracking after it has been destroyed.
func (m *Manager) Forget(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.records, id)
	delete(m.holds, id)
}

// ExpiresAt returns when the record's retention period ends.
func (m *Manager) ExpiresAt(id string) (time.Time, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.records[id]
	if !ok {
		return time.Time{}, fmt.Errorf("%w: %s", ErrUnknownRecord, id)
	}
	return m.expiresLocked(e), nil
}

// CanDispose reports whether the record may be securely destroyed now:
// retention elapsed and no legal hold. The error explains the refusal.
func (m *Manager) CanDispose(id string) error {
	expires, err := m.ExpiresAt(id)
	if err != nil {
		return err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if h, held := m.holds[id]; held {
		return fmt.Errorf("%w: %s (reason: %s)", ErrOnHold, id, h.Reason)
	}
	if now := m.clk.Now(); now.Before(expires) {
		return fmt.Errorf("%w: %s retained until %s", ErrRetentionActive, id, expires.Format(time.RFC3339))
	}
	return nil
}

// PlaceHold puts a legal hold on the record.
func (m *Manager) PlaceHold(id, reason string) error {
	return m.PlaceHoldAt(id, reason, m.clk.Now())
}

// PlaceHoldAt places a hold with an explicit placement time — used when
// restoring persisted holds, whose original timestamps must survive.
func (m *Manager) PlaceHoldAt(id, reason string, placed time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.records[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRecord, id)
	}
	m.holds[id] = Hold{Record: id, Reason: reason, Placed: placed.UTC()}
	return nil
}

// ReleaseHold lifts the legal hold on the record, if any.
func (m *Manager) ReleaseHold(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.holds, id)
}

// Holds returns the active legal holds sorted by record ID.
func (m *Manager) Holds() []Hold {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Hold, 0, len(m.holds))
	for _, h := range m.holds {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Record < out[j].Record })
	return out
}

// Expired returns the IDs of records whose retention period has elapsed and
// that are not under hold — the disposition work list, sorted.
func (m *Manager) Expired() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	now := m.clk.Now()
	var out []string
	for id, e := range m.records {
		if _, held := m.holds[id]; held {
			continue
		}
		if !now.Before(m.expiresLocked(e)) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Tracked returns the number of tracked records.
func (m *Manager) Tracked() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.records)
}
