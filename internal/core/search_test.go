package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"medvault/internal/authz"
	"medvault/internal/ehr"
)

// TestSearchAnswersByReadPermission: search keeps exactly the hits the actor
// may read, by role grant and category, and a break-glass grant counts while
// it is active and not after it expires between two queries. The expected
// answers come from authz.Check asked once per hit, the rule search must
// keep however it decides. It also reports the allocations of a 1,000-hit
// search.
func TestSearchAnswersByReadPermission(t *testing.T) {
	ctx := context.Background()
	v, vc := newVault(t)
	a := v.Authz()
	a.DefineRole(authz.NewRole("writer-all", []authz.Action{authz.ActWrite}))
	if err := a.AddPrincipal("writer", "writer-all"); err != nil {
		t.Fatal(err)
	}
	cats := map[string]ehr.Category{}
	for i := 0; i < 1000; i++ {
		rec := tortureRecord(fmt.Sprintf("rec-%04d", i), 1, vc.Now())
		rec.Category = ehr.Categories()[i%len(ehr.Categories())]
		rec.Body = "routine follow-up"
		if _, err := v.PutCtx(ctx, "writer", rec); err != nil {
			t.Fatal(err)
		}
		cats[rec.ID] = rec.Category
	}
	want := func(actor string) []string {
		out := []string{}
		for id, cat := range cats {
			if a.Check(actor, authz.ActRead, string(cat)).Allowed {
				out = append(out, id)
			}
		}
		sort.Strings(out)
		return out
	}
	check := func(what, actor string, n int) {
		t.Helper()
		got, err := v.SearchCtx(ctx, actor, "routine")
		if err != nil {
			t.Fatalf("%s: search as %s: %v", what, actor, err)
		}
		if got == nil {
			got = []string{}
		}
		if w := want(actor); len(w) != n || !reflect.DeepEqual(got, w) {
			t.Errorf("%s: %s found %d records, want %d (%d by the per-hit rule)", what, actor, len(got), n, len(w))
		}
	}
	check("physician", "dr-house", 600) // clinical, lab, imaging
	check("nurse", "nurse-joy", 400)    // clinical, lab
	check("billing clerk", "clerk-bob", 200)
	check("compliance officer", "officer-kim", 0) // may search, may read nothing
	if _, err := v.SearchCtx(ctx, "arch-lee", "routine"); !errors.Is(err, ErrDenied) {
		t.Errorf("archivist search: %v, want ErrDenied", err)
	}

	if err := v.BreakGlassCtx(ctx, "officer-kim", "code blue", time.Hour); err != nil {
		t.Fatal(err)
	}
	check("break-glass active", "officer-kim", 1000)
	vc.Advance(2 * time.Hour)
	check("break-glass expired", "officer-kim", 0)

	allocs := testing.AllocsPerRun(20, func() {
		if _, err := v.SearchCtx(ctx, "dr-house", "routine"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a 1,000-hit search as a physician (600 kept): %.0f allocations", allocs)
}
