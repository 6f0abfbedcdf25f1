package httpapi

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// capabilities is README's "What the vault guarantees" table, row for row:
// each requirement, the shipped surfaces that reach it, and the existing
// tests that drive those surfaces. A surface is a vault route pattern, a
// "medvault <subcommand>" or an "examples/<program>".
var capabilities = []struct {
	requirement string
	surfaces    []string
	tests       []string
}{
	{"Confidentiality",
		[]string{"POST /records", "GET /records/{id}"},
		[]string{"TestClientCreateGetCorrectHistory"}},
	{"Access control",
		[]string{"GET /records/{id}", "POST /breakglass"},
		[]string{"TestClientAuthzMatrix", "TestClientBreakGlass"}},
	{"Integrity vs. insiders",
		[]string{"POST /verify", "GET /records/{id}/versions/{n}/proof", "examples/breach_investigation"},
		[]string{"TestClientVerify", "TestAuditorPinsHistoryBetweenProofs", "TestExamplesRun"}},
	{"Mutability with history",
		[]string{"POST /records/{id}/corrections", "GET /records/{id}/history", "GET /records/{id}/versions/{n}"},
		[]string{"TestClientCreateGetCorrectHistory"}},
	{"Trustworthy search",
		[]string{"GET /search"},
		[]string{"TestClientSearch"}},
	{"Audit trails",
		[]string{"GET /audit"},
		[]string{"TestConcurrentPersonasLeaveAnAccountableTrail", "TestUnknownRecordProbeAudited"}},
	{"Provenance",
		[]string{"GET /records/{id}/custody"},
		[]string{"TestClientCustody"}},
	{"Retention & secure deletion",
		[]string{"GET /retention/expired", "PUT /records/{id}/hold", "DELETE /records/{id}", "medvault sanitize", "examples/secure_deletion"},
		[]string{"TestClientRetentionExpired", "TestClientRetentionHolds", "TestClientShredLifecycle", "TestCLIWorkflow", "TestExamplesRun"}},
	{"Migration",
		[]string{"examples/migration"},
		[]string{"TestExamplesRun"}},
	{"Backup",
		[]string{"medvault backup", "medvault restore"},
		[]string{"TestCLIBackupRestore"}},
	{"Durability",
		[]string{"medvault put", "medvault get"},
		[]string{"TestCLIWorkflow"}},
	{"Verifiable reads",
		[]string{"GET /records/{id}/versions/{n}/proof", "medvault prove", "examples/patient_rights"},
		[]string{"TestClientProof", "TestAuditorPinsHistoryBetweenProofs", "TestCLIWorkflow", "TestExamplesRun"}},
	{"Patient rights",
		[]string{"GET /patients/{mrn}/disclosures", "GET /patients/{mrn}/records", "examples/patient_rights"},
		[]string{"TestClientDisclosures", "TestExamplesRun"}},
}

// TestCapabilityTable: every capability README advertises is reachable. Its
// table's rows must be capabilities' rows, in order, with the same
// surfaces; every row names at least one surface and one test; and every
// named route, subcommand, example and test exists. A capability with no
// surface is not advertised: it is listed under README's limitations, or
// its code goes.
func TestCapabilityTable(t *testing.T) {
	const root = "../.."
	readme := readmeTable(t, filepath.Join(root, "README.md"))
	var want []string
	for _, c := range capabilities {
		want = append(want, c.requirement)
	}
	var got []string
	for _, r := range readme {
		got = append(got, r[0])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("README's requirements are\n  %q\nthe capability table's are\n  %q", got, want)
	}

	routes := map[string]bool{}
	for _, rt := range vaultRoutes {
		routes[rt.pattern] = true
	}
	cli, err := os.ReadFile(filepath.Join(root, "cmd/medvault/main.go"))
	if err != nil {
		t.Fatal(err)
	}
	tests := testNames(t, root)
	for i, c := range capabilities {
		if len(c.surfaces) == 0 || len(c.tests) == 0 {
			t.Errorf("%s: a capability needs a surface and a test that drives it", c.requirement)
		}
		if cell := "`" + strings.Join(c.surfaces, "`, `") + "`"; readme[i][1] != cell {
			t.Errorf("%s: README names the surfaces %s, want %s", c.requirement, readme[i][1], cell)
		}
		for _, s := range c.surfaces {
			var ok bool
			switch {
			case strings.HasPrefix(s, "medvault "):
				ok = strings.Contains(string(cli), "case \""+strings.TrimPrefix(s, "medvault ")+"\":")
			case strings.HasPrefix(s, "examples/"):
				_, err := os.Stat(filepath.Join(root, s, "main.go"))
				ok = err == nil
			default:
				ok = routes[s]
			}
			if !ok {
				t.Errorf("%s: surface %q does not exist", c.requirement, s)
			}
		}
		for _, name := range c.tests {
			if !tests[name] {
				t.Errorf("%s: test %s does not exist", c.requirement, name)
			}
		}
	}
}

// readmeTable returns the requirement and surface cells of each row of the
// table under README's "What the vault guarantees" heading.
func readmeTable(t *testing.T, path string) [][2]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## What the vault guarantees\n")
	if !ok {
		t.Fatal("README has no \"What the vault guarantees\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows [][2]string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 2 || strings.HasPrefix(cells[0], "---") {
			continue
		}
		rows = append(rows, [2]string{strings.TrimSpace(cells[0]), strings.TrimSpace(cells[len(cells)-1])})
	}
	if len(rows) == 0 {
		t.Fatal("README's capability table has no rows")
	}
	return rows[1:] // the header
}

// testNames returns the name of every top-level test function in the
// module's test files (bench/ is a module of its own).
func testNames(t *testing.T, root string) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(t \*testing\.T\)`)
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "bench")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(b, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
