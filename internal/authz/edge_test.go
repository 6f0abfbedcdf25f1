package authz

import (
	"errors"
	"testing"
	"time"
)

// edgeClock is a settable now() for expiry-boundary tests.
type edgeClock struct{ t time.Time }

func (c *edgeClock) now() time.Time { return c.t }

func newEdgeAuthorizer(t *testing.T) (*Authorizer, *edgeClock) {
	t.Helper()
	c := &edgeClock{t: time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)}
	a := New(c.now)
	for _, r := range StandardRoles() {
		a.DefineRole(r)
	}
	for id, role := range map[string]string{
		"dr-house": "physician", "nurse-joy": "nurse", "clerk-bob": "billing-clerk",
		"officer-kim": "compliance-officer", "arch-lee": "archivist",
	} {
		if err := a.AddPrincipal(id, role); err != nil {
			t.Fatal(err)
		}
	}
	return a, c
}

// TestBreakGlassActionCoverage: emergency elevation covers care delivery
// (read, search, write, correct) and nothing else — a grant must never turn
// into shred, audit, or admin power.
func TestBreakGlassActionCoverage(t *testing.T) {
	a, _ := newEdgeAuthorizer(t)
	if _, err := a.BreakGlass("clerk-bob", "code blue on 3F", time.Hour); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		act     Action
		cat     string
		allowed bool
	}{
		{ActRead, "clinical", true},
		{ActSearch, "clinical", true},
		{ActWrite, "occupational", true}, // no role writes occupational; break-glass does
		{ActCorrect, "imaging", true},
		{ActShred, "clinical", false},
		{ActAudit, "", false},
		{ActAdmin, "", false},
		{ActMigrate, "", false},
		{ActBackup, "", false},
	}
	for _, tc := range cases {
		d := a.Check("clerk-bob", tc.act, tc.cat)
		if d.Allowed != tc.allowed {
			t.Errorf("break-glass %s on %q: allowed=%v, want %v (%s)", tc.act, tc.cat, d.Allowed, tc.allowed, d.Reason)
		}
		if d.Allowed && tc.act != ActWrite && tc.cat == "billing" {
			continue
		}
		// Elevated decisions must be flagged so the audit trail shows the
		// grant, not the role, as the basis.
		if tc.allowed && tc.cat != "billing" && !d.BreakGlass {
			t.Errorf("break-glass %s on %q: decision not flagged as break-glass", tc.act, tc.cat)
		}
	}
}

// TestBreakGlassExpiryBoundary: a grant is valid through its exact expiry
// instant and dead one nanosecond later.
func TestBreakGlassExpiryBoundary(t *testing.T) {
	a, c := newEdgeAuthorizer(t)
	g, err := a.BreakGlass("nurse-joy", "night shift emergency", 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	c.t = g.Expires
	if d := a.Check("nurse-joy", ActWrite, "clinical"); !d.Allowed {
		t.Errorf("grant at exact expiry instant: denied (%s)", d.Reason)
	}
	c.t = g.Expires.Add(time.Nanosecond)
	if d := a.Check("nurse-joy", ActWrite, "clinical"); d.Allowed {
		t.Errorf("grant past expiry: still allowed (%s)", d.Reason)
	}
	if grants := a.ActiveGrants(); len(grants) != 0 {
		t.Errorf("expired grant still listed active: %+v", grants)
	}
}

// TestRevokeMidSession: revoking a grant takes effect on the very next
// check — there is no grace period for in-flight elevation.
func TestRevokeMidSession(t *testing.T) {
	a, _ := newEdgeAuthorizer(t)
	if _, err := a.BreakGlass("nurse-joy", "emergency consult", time.Hour); err != nil {
		t.Fatal(err)
	}
	if d := a.Check("nurse-joy", ActWrite, "clinical"); !d.Allowed {
		t.Fatalf("grant not effective: %s", d.Reason)
	}
	a.Revoke("nurse-joy")
	if d := a.Check("nurse-joy", ActWrite, "clinical"); d.Allowed {
		t.Errorf("revoked grant still allows writes (%s)", d.Reason)
	}
	// Role-based permissions survive revocation untouched.
	if d := a.Check("nurse-joy", ActRead, "clinical"); !d.Allowed {
		t.Errorf("revocation removed role permission (%s)", d.Reason)
	}
	// Revoking a principal with no grant is a no-op, not a panic.
	a.Revoke("dr-house")
	a.Revoke("no-such-person")
}

// TestRoleRedefinitionMidSession: DefineRole replaces the role in place, and
// every subsequent check uses the new definition — sessions hold no cached
// permissions.
func TestRoleRedefinitionMidSession(t *testing.T) {
	a, _ := newEdgeAuthorizer(t)
	if d := a.Check("dr-house", ActWrite, "imaging"); !d.Allowed {
		t.Fatalf("physician cannot write imaging before redefinition: %s", d.Reason)
	}
	// The org tightens physicians to clinical-only mid-session.
	a.DefineRole(NewRole("physician", []Action{ActRead, ActWrite, ActCorrect, ActSearch}, "clinical"))
	if d := a.Check("dr-house", ActWrite, "imaging"); d.Allowed {
		t.Errorf("stale role definition honored after redefinition (%s)", d.Reason)
	}
	if d := a.Check("dr-house", ActWrite, "clinical"); !d.Allowed {
		t.Errorf("narrowed role lost surviving permission (%s)", d.Reason)
	}
}

// TestDenyByDefault: unknown principals, unknown roles, and empty-category
// checks on scoped roles all deny with a reason — never an error, never a
// silent allow.
func TestDenyByDefault(t *testing.T) {
	a, _ := newEdgeAuthorizer(t)
	cases := []struct {
		name      string
		principal string
		act       Action
		cat       string
	}{
		{"unknown principal", "dr-mystery", ActRead, "clinical"},
		{"unknown principal admin", "dr-mystery", ActAdmin, ""},
		{"scoped role, uncovered category", "nurse-joy", ActRead, "billing"},
		{"scoped role, empty category", "dr-house", ActWrite, ""},
		{"known principal, unheld action", "clerk-bob", ActShred, "billing"},
	}
	for _, tc := range cases {
		d := a.Check(tc.principal, tc.act, tc.cat)
		if d.Allowed {
			t.Errorf("%s: allowed (%s)", tc.name, d.Reason)
		}
		if d.Reason == "" {
			t.Errorf("%s: denial carries no reason", tc.name)
		}
	}

	// A principal whose only role has been deleted out from under it (the
	// map entry removed, not redefined) is denied, not errored.
	if err := a.AddPrincipal("temp-doc", "physician"); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	delete(a.roles, "physician")
	a.mu.Unlock()
	if d := a.Check("temp-doc", ActRead, "clinical"); d.Allowed {
		t.Errorf("deleted role still grants access (%s)", d.Reason)
	}

	// And registering a principal against a role that never existed fails
	// up front.
	if err := a.AddPrincipal("ghost", "astrologer"); !errors.Is(err, ErrUnknownRole) {
		t.Errorf("AddPrincipal with unknown role = %v, want ErrUnknownRole", err)
	}
}

// TestBreakGlassValidation: grants require a registered principal and a
// reason — the audit trail is only as good as what gets recorded on issue.
func TestBreakGlassValidation(t *testing.T) {
	a, _ := newEdgeAuthorizer(t)
	if _, err := a.BreakGlass("dr-house", "", time.Hour); !errors.Is(err, ErrEmptyReason) {
		t.Errorf("empty reason = %v, want ErrEmptyReason", err)
	}
	if _, err := a.BreakGlass("stranger", "help", time.Hour); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("unknown principal = %v, want ErrUnknownPrincipal", err)
	}
	for _, d := range []time.Duration{0, -5 * time.Minute, MaxBreakGlass + time.Nanosecond, 190 * 365 * 24 * time.Hour} {
		if _, err := a.BreakGlass("dr-house", "help", d); !errors.Is(err, ErrBadDuration) {
			t.Errorf("duration %v = %v, want ErrBadDuration", d, err)
		}
	}
	if len(a.ActiveGrants()) != 0 {
		t.Errorf("a refused grant left %+v", a.ActiveGrants())
	}
	if _, err := a.BreakGlass("dr-house", "help", MaxBreakGlass); err != nil {
		t.Errorf("duration MaxBreakGlass = %v, want a grant", err)
	}
	// A second grant replaces the first: the newest expiry wins.
	g1, err := a.BreakGlass("dr-house", "first", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := a.BreakGlass("dr-house", "second", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Expires.After(g1.Expires) {
		t.Errorf("replacement grant does not extend expiry: %v vs %v", g2.Expires, g1.Expires)
	}
	grants := a.ActiveGrants()
	if len(grants) != 1 || grants[0].Reason != "second" {
		t.Errorf("ActiveGrants after replacement = %+v", grants)
	}
}
