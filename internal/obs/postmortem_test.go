package obs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"medvault/internal/faultfs"
)

func TestPostmortemWriteAndRead(t *testing.T) {
	mem := faultfs.NewMem()
	fl := NewFlight(16)
	fl.Record(FlightEvent{Kind: "put", Record: "a1b2c3d4e5f6", Trace: "aaaa", Outcome: "ok"})
	reg := NewRegistry()
	reg.Counter("medvault_ops_total", "", L("op", "put")).Inc()
	tr := NewTracer(TracerConfig{})
	_, trace := tr.Start(t.Context(), "put", "")
	time.Sleep(30 * time.Millisecond) // past DefaultSlowThreshold
	tr.Finish(trace, nil)

	path, err := WritePostmortem(mem, "v", "test-reason", PostmortemConfig{
		Flight: fl, Tracer: tr, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(path, "v/postmortem/pm-") {
		t.Fatalf("bundle path %q", path)
	}

	pms, err := ReadPostmortems(mem, "v")
	if err != nil || len(pms) != 1 {
		t.Fatalf("ReadPostmortems = %v, %v", pms, err)
	}
	pm := pms[0]
	if pm.Reason != "test-reason" {
		t.Fatalf("reason %q", pm.Reason)
	}
	if len(pm.Flight) != 1 || pm.Flight[0].Trace != "aaaa" {
		t.Fatalf("flight tail %+v", pm.Flight)
	}
	if !strings.Contains(pm.Stacks, "goroutine") {
		t.Fatal("stacks missing")
	}
	if !strings.Contains(pm.Metrics, "medvault_ops_total") {
		t.Fatal("metrics snapshot missing")
	}
	if len(pm.SlowOps) != 1 || pm.SlowOps[0].ID != trace.ID {
		t.Fatalf("slow traces %+v", pm.SlowOps)
	}

	// No tmp debris: the bundle is published atomically.
	ents, _ := mem.ReadDir("v/postmortem")
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatal("tmp file left behind")
		}
	}
}

func TestPostmortemMissingDirAndGarbage(t *testing.T) {
	mem := faultfs.NewMem()
	if pms, err := ReadPostmortems(mem, "nope"); err != nil || pms != nil {
		t.Fatalf("missing dir: %v, %v", pms, err)
	}
	// Garbage bundles are skipped, not fatal.
	mem.MkdirAll("v/postmortem", 0o700)
	mem.WriteFile("v/postmortem/pm-garbage.json", []byte("{not json"), 0o600)
	if pms, err := ReadPostmortems(mem, "v"); err != nil || len(pms) != 0 {
		t.Fatalf("garbage bundle: %v, %v", pms, err)
	}
}

func TestPostmortemCrashAtomic(t *testing.T) {
	// Crash after the tmp write but before the rename: no bundle, no error
	// visible to a later reader.
	mem := faultfs.NewMem()
	faulty := faultfs.NewFaulty(mem, faultfs.FailNthSync(0, faultfs.ErrCrashed))
	_, err := WritePostmortem(faulty, "v", "doomed", PostmortemConfig{
		Flight: NewFlight(4), Tracer: NewTracer(TracerConfig{}), Registry: NewRegistry(),
	})
	if err == nil {
		t.Fatal("sync failure not reported")
	}
	if pms, _ := ReadPostmortems(mem, "v"); len(pms) != 0 {
		t.Fatalf("partial bundle visible: %+v", pms)
	}
}

// TestPostmortemPruneKeepsNewest: after eleven bundles a prune to eight
// leaves the eight newest, and a power cut after any of its removes leaves
// every remaining bundle whole and decodable — the newest ones, at least
// eight of them.
func TestPostmortemPruneKeepsNewest(t *testing.T) {
	const writes, keep = 11, 8
	cfg := PostmortemConfig{Flight: NewFlight(4), Tracer: NewTracer(TracerConfig{}), Registry: NewRegistry()}
	mem := faultfs.NewMem()
	var paths []string
	for i := 0; i < writes; i++ {
		p, err := WritePostmortem(mem, "v", fmt.Sprintf("bundle %d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) > 0 && p <= paths[len(paths)-1] {
			t.Fatalf("bundle %d is named %s, not after %s", i, p, paths[len(paths)-1])
		}
		paths = append(paths, p)
	}
	reasons := func(fsys faultfs.FS) string {
		t.Helper()
		pms, err := ReadPostmortems(fsys, "v")
		if err != nil {
			t.Fatal(err)
		}
		if files, _ := postmortemNames(fsys, "v/"+PostmortemDir); len(files) != len(pms) {
			t.Fatalf("%d bundle files, %d decode", len(files), len(pms))
		}
		var out []string
		for _, pm := range pms {
			out = append(out, pm.Reason)
		}
		return strings.Join(out, ", ")
	}
	newest := func(n int) string {
		var out []string
		for i := writes - n; i < writes; i++ {
			out = append(out, fmt.Sprintf("bundle %d", i))
		}
		return strings.Join(out, ", ")
	}

	img := mem.CrashImage(faultfs.KeepAll)
	if err := PrunePostmortems(faultfs.NewFaulty(img, faultfs.CrashBefore(0)), "v", keep); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("cut before the first remove: prune returned %v", err)
	}
	if got, want := reasons(img), newest(writes); got != want {
		t.Fatalf("cut before the first remove: bundles %q, want %q", got, want)
	}
	for at := 0; at < writes-keep; at++ {
		for _, keepPolicy := range []faultfs.KeepPolicy{faultfs.KeepNone, faultfs.KeepAll, faultfs.KeepHalf} {
			img := mem.CrashImage(faultfs.KeepAll)
			if err := PrunePostmortems(faultfs.NewFaulty(img, faultfs.CrashAfter(at)), "v", keep); !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("cut after remove %d: prune returned %v", at, err)
			}
			if got, want := reasons(img.CrashImage(keepPolicy)), newest(writes-at-1); got != want {
				t.Fatalf("cut after remove %d: bundles %q, want %q", at, got, want)
			}
		}
	}
	if err := PrunePostmortems(mem, "v", keep); err != nil {
		t.Fatal(err)
	}
	if got, want := reasons(mem), newest(keep); got != want {
		t.Fatalf("after pruning: bundles %q, want %q", got, want)
	}
}

// TestPostmortemPruneRemovesStaleTemps: a power cut mid-bundle leaves its
// temporary file behind; the next write's prune removes it with the bundles
// past the budget, so the directory holds no temporary file and at most
// keep bundles.
func TestPostmortemPruneRemovesStaleTemps(t *testing.T) {
	const keep = 8
	cfg := PostmortemConfig{Flight: NewFlight(4), Tracer: NewTracer(TracerConfig{}), Registry: NewRegistry()}
	mem := faultfs.NewMem()
	for i := 0; i < keep; i++ {
		if _, err := WritePostmortem(mem, "v", fmt.Sprintf("bundle %d", i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	// The cut lands after the temporary file's write (op 0 creates it).
	if _, err := WritePostmortem(faultfs.NewFaulty(mem, faultfs.CrashAfter(1)), "v", "cut", cfg); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("bundle write under a cut returned %v", err)
	}
	img := mem.CrashImage(faultfs.KeepAll)
	files := func() (bundles, temps int) {
		t.Helper()
		ents, err := img.ReadDir("v/" + PostmortemDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				temps++
			} else {
				bundles++
			}
		}
		return bundles, temps
	}
	if bundles, temps := files(); bundles != keep || temps != 1 {
		t.Fatalf("the cut left %d bundles and %d temporary files, want %d and 1", bundles, temps, keep)
	}
	if _, err := WritePostmortem(img, "v", "after", cfg); err != nil {
		t.Fatal(err)
	}
	if err := PrunePostmortems(img, "v", keep); err != nil {
		t.Fatal(err)
	}
	if bundles, temps := files(); bundles != keep || temps != 0 {
		t.Errorf("prune left %d bundles and %d temporary files, want %d and none", bundles, temps, keep)
	}
}
