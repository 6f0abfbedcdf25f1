package main

// In-process end-to-end tests: runLoad drives a live httpapi handler over a
// real vault (one shard) and a real cluster (four shards), and the run must
// pass its own SLO gates with zero invariant violations — the same bar the
// CI smoke step holds the built binaries to.

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"medvault/internal/authz"
	"medvault/internal/core"
	"medvault/internal/httpapi"
	"medvault/internal/medclient"
	"medvault/internal/vcrypto"
)

// newLoadTarget serves a fresh in-memory vault of the given shard count with every medload
// principal provisioned, exactly as principals.conf lines would.
func newLoadTarget(t *testing.T, shards, actors int) string {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Open(core.Config{Name: "load-test", Master: master, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })

	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	for _, line := range strings.Split(principalLines(actors), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed principal line %q", line)
		}
		if err := a.AddPrincipal(fields[0], strings.Split(fields[1], ",")...); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(httpapi.New(v))
	t.Cleanup(ts.Close)
	return ts.URL
}

func quickConfig(target string) config {
	return config{
		Target:           target,
		Actors:           8,
		Duration:         1500 * time.Millisecond,
		P99Target:        5 * time.Second, // generous: shared CI runners
		MRNs:             8,
		InvariantSamples: 10,
	}
}

func testQuickLoad(t *testing.T, shards int) {
	target := newLoadTarget(t, shards, 8)
	rep, err := runLoad(context.Background(), quickConfig(target))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != shards {
		t.Errorf("report shards = %d, want %d", rep.Shards, shards)
	}
	if !rep.SLO.Pass {
		t.Errorf("SLO failed: %v", rep.SLO.Failures)
	}
	if rep.CallsTotal == 0 || rep.ThroughputRPS == 0 {
		t.Errorf("no load generated: %+v", rep)
	}
	byName := map[string]endpointStats{}
	for _, e := range rep.Endpoints {
		byName[e.Endpoint] = e
	}
	for _, want := range []string{"POST /records", "GET /records/{id}", "GET /audit", "POST /breakglass"} {
		e, ok := byName[want]
		if !ok || e.Count == 0 {
			t.Errorf("endpoint %s missing from report", want)
			continue
		}
		if e.P50S < 0 || e.P99S < e.P50S {
			t.Errorf("endpoint %s has nonsense percentiles: %+v", want, e)
		}
	}
	// Every scenario ran, so every invariant must have had samples to check:
	// the gate in buildReport fails a vacuous pass, and this pins that the
	// standard run is not one.
	for _, inv := range rep.Invariants {
		if inv.Violations != 0 {
			t.Errorf("invariant %s violated %d times: %s", inv.Name, inv.Violations, inv.Detail)
		}
		if inv.Checked == 0 {
			t.Errorf("invariant %s checked nothing", inv.Name)
		}
	}
}

// testVacuousGate runs only the admission scenario, which fields no
// break-glass responder and no denial prober: those invariants legitimately
// check nothing and the run passes. The same verdicts fail the gate once the
// scenarios that feed them count as selected — medload itself, not a CI
// script reading its output, catches the pass that proved nothing.
func testVacuousGate(t *testing.T, shards int) {
	cfg := quickConfig(newLoadTarget(t, shards, 8))
	cfg.Duration = 300 * time.Millisecond
	cfg.Scenarios = []string{"admission"}
	rep, err := runLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SLO.Pass {
		t.Fatalf("admission-only run failed its gate: %v", rep.SLO.Failures)
	}
	checked := map[string]int{}
	for _, inv := range rep.Invariants {
		checked[inv.Name] = inv.Checked
	}
	if checked["created-readable"] == 0 || checked["breakglass-audited"] != 0 || checked["denied-audited"] != 0 {
		t.Fatalf("admission-only run checked %v", checked)
	}

	cfg.Scenarios = scenarioNames()
	gated := buildReport(cfg, shards, time.Second, newCollector(), rep.Invariants)
	failures := strings.Join(gated.SLO.Failures, "\n")
	for _, name := range []string{"breakglass-audited", "breakglass-disclosed", "denied-audited"} {
		if !strings.Contains(failures, "invariant "+name+" checked nothing") {
			t.Errorf("vacuous %s passed the gate; failures:\n%s", name, failures)
		}
	}
	if strings.Contains(failures, "created-readable") || strings.Contains(failures, "verify-clean") {
		t.Errorf("checked invariants failed the gate:\n%s", failures)
	}
}

func TestQuickLoadSingleShard(t *testing.T) { testQuickLoad(t, 1) }

func TestQuickLoadFourShards(t *testing.T) { testQuickLoad(t, 4) }

func TestVacuousInvariantFailsGateSingleShard(t *testing.T) { testVacuousGate(t, 1) }

func TestVacuousInvariantFailsGateFourShards(t *testing.T) { testVacuousGate(t, 4) }

func TestPrintPrincipals(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(principalLines(3)), "\n")
	seen := map[string]string{}
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed line %q", line)
		}
		seen[fields[0]] = fields[1]
	}
	for id, role := range map[string]string{
		seedPhysician:    "physician",
		seedClerk:        "billing-clerk",
		checkOfficer:     "compliance-officer",
		"admit-clin-0":   "physician",
		"admit-clin-2":   "physician",
		"investigator-1": "compliance-officer,archivist",
		"bg-responder-2": "billing-clerk",
		"patient-0":      "nurse",
	} {
		if seen[id] != role {
			t.Errorf("principal %s = %q, want %q", id, seen[id], role)
		}
	}
	// Every emitted role must resolve against the standard role set.
	known := map[string]bool{}
	for _, r := range authz.StandardRoles() {
		known[r.Name] = true
	}
	for id, roles := range seen {
		for _, r := range strings.Split(roles, ",") {
			if !known[r] {
				t.Errorf("principal %s names unknown role %q", id, r)
			}
		}
	}
}

func TestParseScenarios(t *testing.T) {
	all, err := parseScenarios("all")
	if err != nil || len(all) != len(scenarios) {
		t.Fatalf("all = %v, %v", all, err)
	}
	got, err := parseScenarios("steady, admission")
	if err != nil || len(got) != 2 || got[0] != "admission" || got[1] != "steady" {
		t.Fatalf("subset = %v, %v", got, err)
	}
	if _, err := parseScenarios("nosuch"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestAssignActorsSpreadsPersonas(t *testing.T) {
	names := scenarioNames()
	got := assignActors(20, names)
	if len(got) != 20 {
		t.Fatalf("assigned %d", len(got))
	}
	perScenario := map[string]int{}
	for _, a := range got {
		perScenario[a.scenario]++
		var found bool
		for _, wp := range scenarios[a.scenario] {
			if wp.persona == a.persona {
				found = true
			}
		}
		if !found {
			t.Errorf("actor assigned persona %q outside scenario %q", a.persona, a.scenario)
		}
	}
	for _, s := range names {
		if perScenario[s] == 0 {
			t.Errorf("scenario %s got no actors", s)
		}
	}
}

// TestCollectorIgnoresShutdownNoise pins the stopping-window filter: a call
// chopped by the deadline is not an error, but a transport failure during
// the window is.
func TestCollectorIgnoresShutdownNoise(t *testing.T) {
	col := newCollector()
	col.Record(medclient.Call{Endpoint: "GET /records/{id}", Status: 200, Duration: time.Millisecond})
	col.Record(medclient.Call{Endpoint: "GET /records/{id}", Status: 404, Duration: time.Millisecond,
		Err: &medclient.StatusError{Status: 404}, Unexpected: true})
	col.Record(medclient.Call{Endpoint: "GET /records/{id}", Duration: time.Millisecond, Err: context.Canceled})
	col.stopping.Store(true)
	col.Record(medclient.Call{Endpoint: "GET /records/{id}", Duration: time.Millisecond, Err: context.Canceled})

	rep := buildReport(config{Target: "x", P99Target: time.Second, Scenarios: []string{"steady"}},
		1, time.Second, col, nil)
	if rep.CallsTotal != 3 {
		t.Errorf("calls = %d, want 3 (post-stop cancellation dropped)", rep.CallsTotal)
	}
	if rep.CallsUnexpected != 1 || rep.TransportErrors != 1 {
		t.Errorf("unexpected/transport = %d/%d, want 1/1", rep.CallsUnexpected, rep.TransportErrors)
	}
	if rep.SLO.Pass {
		t.Error("SLO passed despite blown zero error budget")
	}
}
