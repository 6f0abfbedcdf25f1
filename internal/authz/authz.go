// Package authz implements MedVault's access control: role-based permissions
// with category scoping (HIPAA's "minimum necessary" principle) and audited
// break-glass emergency access.
//
// The paper requires that "only authorized personnel should have access to
// confidential medical records". authz decides; enforcement lives in the
// vault layer, which consults authz before every operation and writes the
// decision — allowed or denied — to the audit log. Break-glass exists because
// clinical reality demands it: an ER physician must be able to open any chart
// now, with the access flagged, time-boxed, and reviewed after the fact
// rather than blocked.
package authz

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Action is an operation class subject to authorization.
type Action string

// Actions understood by the authorizer.
const (
	ActRead    Action = "read"
	ActWrite   Action = "write"   // create new records
	ActCorrect Action = "correct" // append corrected versions
	ActSearch  Action = "search"
	ActShred   Action = "shred" // secure deletion after retention
	ActMigrate Action = "migrate"
	ActBackup  Action = "backup"
	ActAudit   Action = "audit" // read audit trails and provenance
	ActAdmin   Action = "admin" // manage principals, roles, policies
)

// Errors returned by the package.
var (
	// ErrUnknownPrincipal indicates an unregistered principal.
	ErrUnknownPrincipal = errors.New("authz: unknown principal")
	// ErrUnknownRole indicates a role that has not been defined.
	ErrUnknownRole = errors.New("authz: unknown role")
	// ErrGrantExpired indicates a break-glass grant outside its window.
	ErrGrantExpired = errors.New("authz: break-glass grant expired")
	// ErrEmptyReason indicates a break-glass request without justification.
	ErrEmptyReason = errors.New("authz: break-glass requires a reason")
	// ErrBadDuration indicates a break-glass duration outside (0, MaxBreakGlass].
	ErrBadDuration = errors.New("authz: break-glass duration out of range")
)

// MaxBreakGlass is the longest emergency grant BreakGlass issues, inclusive.
// Emergency access is for the emergency; a longer need is a role change.
const MaxBreakGlass = 24 * time.Hour

// Role names a set of permitted actions, optionally scoped to record
// categories. An empty Categories set means the role applies to all
// categories; a non-empty set is the "minimum necessary" restriction — e.g.
// a billing clerk sees billing records, not psychiatry notes.
type Role struct {
	Name       string
	Actions    map[Action]bool
	Categories map[string]bool
}

// NewRole builds a Role. cats may be empty for an unscoped role.
func NewRole(name string, actions []Action, cats ...string) Role {
	r := Role{Name: name, Actions: make(map[Action]bool), Categories: make(map[string]bool)}
	for _, a := range actions {
		r.Actions[a] = true
	}
	for _, c := range cats {
		r.Categories[c] = true
	}
	return r
}

// Decision is the result of an authorization check.
type Decision struct {
	Allowed    bool
	BreakGlass bool   // allowed only because of an active break-glass grant
	Reason     string // human-readable explanation, recorded in audit detail
}

// Grant is a time-boxed break-glass elevation for one principal.
type Grant struct {
	Principal string
	Reason    string
	Issued    time.Time
	Expires   time.Time
}

// Authorizer evaluates access decisions. Safe for concurrent use.
type Authorizer struct {
	mu         sync.RWMutex
	roles      map[string]Role
	principals map[string][]string // principal -> role names
	grants     map[string]Grant    // active break-glass grants by principal
	now        func() time.Time
}

// New returns an empty Authorizer; now supplies time (nil means time.Now).
func New(now func() time.Time) *Authorizer {
	if now == nil {
		now = time.Now
	}
	return &Authorizer{
		roles:      make(map[string]Role),
		principals: make(map[string][]string),
		grants:     make(map[string]Grant),
		now:        now,
	}
}

// DefineRole registers or replaces a role.
func (a *Authorizer) DefineRole(r Role) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roles[r.Name] = r
}

// AddPrincipal registers a principal with the given roles, all of which must
// already be defined.
func (a *Authorizer) AddPrincipal(id string, roles ...string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range roles {
		if _, ok := a.roles[r]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownRole, r)
		}
	}
	a.principals[id] = append([]string(nil), roles...)
	return nil
}

// Principals returns the registered principal IDs, sorted.
func (a *Authorizer) Principals() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.principals))
	for id := range a.principals {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Check decides whether principal may perform act on a record of the given
// category. Unknown principals are denied, never errored: the decision is
// always auditable.
func (a *Authorizer) Check(principal string, act Action, category string) Decision {
	a.mu.RLock()
	defer a.mu.RUnlock()
	roleNames, known := a.principals[principal]
	if known {
		for _, rn := range roleNames {
			role, ok := a.roles[rn]
			if !ok {
				continue
			}
			if !role.Actions[act] {
				continue
			}
			if len(role.Categories) > 0 && !role.Categories[category] {
				continue
			}
			return Decision{Allowed: true, Reason: fmt.Sprintf("role %s permits %s on %q", rn, act, category)}
		}
	}
	// Fall back to an active break-glass grant, which covers clinical
	// actions only — it never elevates to admin or shred.
	if g, ok := a.grants[principal]; ok && !a.now().After(g.Expires) && breakGlassCovers(act) {
		return Decision{
			Allowed:    true,
			BreakGlass: true,
			Reason:     fmt.Sprintf("break-glass grant (%s) active until %s", g.Reason, g.Expires.Format(time.RFC3339)),
		}
	}
	if !known {
		return Decision{Reason: fmt.Sprintf("unknown principal %q", principal)}
	}
	return Decision{Reason: fmt.Sprintf("no role of %q permits %s on %q", principal, act, category)}
}

// breakGlassCovers limits emergency elevation to care-delivery actions.
func breakGlassCovers(act Action) bool {
	switch act {
	case ActRead, ActSearch, ActWrite, ActCorrect:
		return true
	default:
		return false
	}
}

// BreakGlass issues a time-boxed emergency grant to principal. The principal
// must be registered (anonymous break-glass is not a thing) and must supply
// a reason, which the vault writes to the audit trail; the duration must be
// positive and at most MaxBreakGlass.
func (a *Authorizer) BreakGlass(principal, reason string, duration time.Duration) (Grant, error) {
	if reason == "" {
		return Grant{}, ErrEmptyReason
	}
	if duration <= 0 || duration > MaxBreakGlass {
		return Grant{}, fmt.Errorf("%w: %v", ErrBadDuration, duration)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.principals[principal]; !ok {
		return Grant{}, fmt.Errorf("%w: %s", ErrUnknownPrincipal, principal)
	}
	now := a.now().UTC()
	g := Grant{Principal: principal, Reason: reason, Issued: now, Expires: now.Add(duration)}
	a.grants[principal] = g
	return g, nil
}

// Revoke cancels any active break-glass grant for principal.
func (a *Authorizer) Revoke(principal string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.grants, principal)
}

// ActiveGrants returns unexpired break-glass grants, for compliance review.
func (a *Authorizer) ActiveGrants() []Grant {
	a.mu.RLock()
	defer a.mu.RUnlock()
	now := a.now()
	var out []Grant
	for _, g := range a.grants {
		if !now.After(g.Expires) {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Principal < out[j].Principal })
	return out
}

// StandardRoles returns the role set used by the examples and experiments:
// physicians read/write/correct/search clinical records; nurses read/search;
// clerks handle billing only; compliance officers see audit trails and run
// verification; archivists run retention, migration, and backup.
func StandardRoles() []Role {
	return []Role{
		NewRole("physician", []Action{ActRead, ActWrite, ActCorrect, ActSearch}, "clinical", "lab", "imaging"),
		NewRole("nurse", []Action{ActRead, ActSearch}, "clinical", "lab"),
		NewRole("billing-clerk", []Action{ActRead, ActSearch, ActWrite}, "billing"),
		NewRole("compliance-officer", []Action{ActAudit, ActSearch}),
		NewRole("archivist", []Action{ActShred, ActMigrate, ActBackup, ActAudit}),
		NewRole("admin", []Action{ActAdmin, ActAudit}),
	}
}
