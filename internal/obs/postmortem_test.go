package obs

import (
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
