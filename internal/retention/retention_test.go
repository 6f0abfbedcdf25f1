package retention

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"medvault/internal/clock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newManager(t *testing.T) (*Manager, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual(epoch)
	m := NewManager(vc)
	for _, p := range StandardPolicies() {
		m.SetPolicy(p)
	}
	return m, vc
}

func TestTrackRequiresPolicy(t *testing.T) {
	m, _ := newManager(t)
	if err := m.Track("r1", "clinical", epoch); err != nil {
		t.Fatal(err)
	}
	if err := m.Track("r2", "unregulated", epoch); !errors.Is(err, ErrNoPolicy) {
		t.Errorf("Track without policy: %v", err)
	}
	if m.Tracked() != 1 {
		t.Errorf("Tracked = %d, want 1", m.Tracked())
	}
}

func TestExpiresAt(t *testing.T) {
	m, _ := newManager(t)
	m.Track("occ", "occupational", epoch)
	got, err := m.ExpiresAt("occ")
	if err != nil {
		t.Fatal(err)
	}
	if want := epoch.Add(30 * Year); !got.Equal(want) {
		t.Errorf("ExpiresAt = %v, want %v (OSHA 30-year rule)", got, want)
	}
	if _, err := m.ExpiresAt("ghost"); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("unknown record: %v", err)
	}
}

func TestCanDisposeLifecycle(t *testing.T) {
	m, vc := newManager(t)
	m.Track("r", "clinical", epoch) // 6-year period

	if err := m.CanDispose("r"); !errors.Is(err, ErrRetentionActive) {
		t.Errorf("disposal during retention: %v", err)
	}
	vc.Advance(3 * Year)
	if err := m.CanDispose("r"); !errors.Is(err, ErrRetentionActive) {
		t.Errorf("disposal at year 3 of 6: %v", err)
	}
	vc.Advance(3 * Year)
	if err := m.CanDispose("r"); err != nil {
		t.Errorf("disposal after expiry refused: %v", err)
	}
}

func TestLegalHoldBlocksDisposal(t *testing.T) {
	m, vc := newManager(t)
	m.Track("r", "clinical", epoch)
	vc.Advance(10 * Year) // well past retention

	if err := m.PlaceHold("r", "malpractice litigation #4521"); err != nil {
		t.Fatal(err)
	}
	if err := m.CanDispose("r"); !errors.Is(err, ErrOnHold) {
		t.Errorf("disposal under hold: %v", err)
	}
	holds := m.Holds()
	if len(holds) != 1 || holds[0].Reason != "malpractice litigation #4521" {
		t.Errorf("Holds = %v", holds)
	}
	m.ReleaseHold("r")
	if err := m.CanDispose("r"); err != nil {
		t.Errorf("disposal after hold release: %v", err)
	}
}

func TestPlaceHoldUnknownRecord(t *testing.T) {
	m, _ := newManager(t)
	if err := m.PlaceHold("ghost", "x"); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("hold on unknown record: %v", err)
	}
}

func TestExpiredWorkList(t *testing.T) {
	m, vc := newManager(t)
	m.Track("clin-old", "clinical", epoch)             // expires year 6
	m.Track("clin-new", "clinical", epoch.Add(5*Year)) // expires year 11
	m.Track("occ", "occupational", epoch)              // expires year 30
	m.Track("held", "clinical", epoch)                 // expires year 6 but held
	m.PlaceHold("held", "audit")

	if got := m.Expired(); len(got) != 0 {
		t.Errorf("Expired at t0 = %v", got)
	}
	vc.Advance(7 * Year)
	if got := m.Expired(); !reflect.DeepEqual(got, []string{"clin-old"}) {
		t.Errorf("Expired at year 7 = %v, want [clin-old]", got)
	}
	vc.Advance(5 * Year) // year 12
	if got := m.Expired(); !reflect.DeepEqual(got, []string{"clin-new", "clin-old"}) {
		t.Errorf("Expired at year 12 = %v", got)
	}
	vc.Advance(20 * Year) // year 32: occupational expires; hold still blocks "held"
	if got := m.Expired(); !reflect.DeepEqual(got, []string{"clin-new", "clin-old", "occ"}) {
		t.Errorf("Expired at year 32 = %v", got)
	}
	m.ReleaseHold("held")
	if got := m.Expired(); len(got) != 4 {
		t.Errorf("Expired after release = %v", got)
	}
}

func TestForget(t *testing.T) {
	m, vc := newManager(t)
	m.Track("r", "clinical", epoch)
	m.PlaceHold("r", "x")
	vc.Advance(10 * Year)
	m.Forget("r")
	if m.Tracked() != 0 {
		t.Error("Forget did not remove record")
	}
	if len(m.Holds()) != 0 {
		t.Error("Forget did not clear hold")
	}
	if err := m.CanDispose("r"); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("CanDispose after Forget: %v", err)
	}
}

func TestPolicyFor(t *testing.T) {
	m, _ := newManager(t)
	p, err := m.PolicyFor("imaging")
	if err != nil || p.Period != 7*Year {
		t.Errorf("PolicyFor(imaging) = %v, %v", p, err)
	}
	if _, err := m.PolicyFor("nope"); !errors.Is(err, ErrNoPolicy) {
		t.Errorf("PolicyFor(nope): %v", err)
	}
}

func TestRetrackUpdatesSchedule(t *testing.T) {
	m, vc := newManager(t)
	m.Track("r", "clinical", epoch)
	// Re-tracking under a longer-retention category extends the schedule.
	m.Track("r", "occupational", epoch)
	vc.Advance(10 * Year)
	if err := m.CanDispose("r"); !errors.Is(err, ErrRetentionActive) {
		t.Errorf("re-track did not apply occupational schedule: %v", err)
	}
}

// TestCompactEntriesAnswerAsBefore: an entry keeps its creation instant as
// Unix nanoseconds and its policy by position. ExpiresAt, CanDispose and
// Expired must answer exactly as a {category, time.Time} entry did — for
// creation times before 1970, to the nanosecond, in a non-UTC zone, and
// after SetPolicy replaces a tracked category's period.
func TestCompactEntriesAnswerAsBefore(t *testing.T) {
	zone := time.FixedZone("UTC-5", -5*3600)
	created := map[string]time.Time{
		"pre-epoch": time.Date(1931, 3, 4, 5, 6, 7, 123456789, time.UTC),
		"epoch":     time.Unix(0, 0),
		"ns":        epoch.Add(time.Nanosecond),
		"zoned":     time.Date(2025, 12, 31, 23, 59, 59, 999999999, zone),
	}
	now := new(stoppedClock)
	m := NewManager(now)
	for _, p := range StandardPolicies() {
		m.SetPolicy(p)
	}
	period := map[string]time.Duration{"clinical": 6 * Year}
	for id, at := range created {
		if err := m.Track(id, "clinical", at); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		t.Helper()
		for id, at := range created {
			want := at.UTC().Add(period["clinical"]) // the parent's arithmetic
			got, err := m.ExpiresAt(id)
			if err != nil || got != want {
				t.Errorf("%s: ExpiresAt(%s) = %v, %v; want %v", stage, id, got, err, want)
			}
			now.t = want.Add(-time.Nanosecond)
			if err := m.CanDispose(id); !errors.Is(err, ErrRetentionActive) {
				t.Errorf("%s: CanDispose(%s) one nanosecond before expiry: %v", stage, id, err)
			}
			if slices.Contains(m.Expired(), id) {
				t.Errorf("%s: %s expired one nanosecond early", stage, id)
			}
			now.t = want
			if err := m.CanDispose(id); err != nil {
				t.Errorf("%s: CanDispose(%s) at expiry: %v", stage, id, err)
			}
			if !slices.Contains(m.Expired(), id) {
				t.Errorf("%s: %s not expired at its expiry instant", stage, id)
			}
		}
	}
	check("standard policy")
	period["clinical"] = 40 * Year
	m.SetPolicy(Policy{Category: "clinical", Period: period["clinical"]})
	check("replaced period")
	if p, err := m.PolicyFor("clinical"); err != nil || p.Period != 40*Year {
		t.Errorf("PolicyFor after replacement = %v, %v", p, err)
	}
}

// stoppedClock reads whatever instant the test last put in it, earlier or
// later.
type stoppedClock struct{ t time.Time }

func (c *stoppedClock) Now() time.Time { return c.t }
