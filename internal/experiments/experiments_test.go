package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"medvault/internal/attack"
)

// These tests execute every experiment at reduced scale and assert the
// qualitative shapes the paper predicts. If one of these fails, the tables
// in EXPERIMENTS.md would contradict the paper.

func cellOf(t *testing.T, tbl Table, rowName, col string) string {
	t.Helper()
	colIdx := -1
	for i, h := range tbl.Header {
		if h == col {
			colIdx = i
		}
	}
	if colIdx == -1 {
		t.Fatalf("%s: no column %q in %v", tbl.ID, col, tbl.Header)
	}
	for _, row := range tbl.Rows {
		if row[0] == rowName {
			if colIdx >= len(row) {
				t.Fatalf("%s: row %q has no cell for %q", tbl.ID, rowName, col)
			}
			return row[colIdx]
		}
	}
	t.Fatalf("%s: no row %q", tbl.ID, rowName)
	return ""
}

func TestE1ComplianceMatrixShape(t *testing.T) {
	tbl, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())

	// Only MedVault passes everything.
	for _, row := range tbl.Rows {
		if got := row[len(row)-1]; got != pass {
			t.Errorf("medvault fails %q: %s", row[0], got)
		}
	}
	// The paper's model-specific failures.
	for _, c := range []struct{ req, store, want string }{
		{"encrypted at rest", "relational", fail},
		{"encrypted at rest", "object-store", fail},
		{"encrypted at rest", "crypt-only", pass},
		{"encrypted at rest", "worm", pass},
		{"replay/rollback detected", "crypt-only", fail},
		{"replay/rollback detected", "relational", fail},
		{"replay/rollback detected", "object-store", fail},
		{"replay/rollback detected", "worm", pass},
		{"corrections supported", "worm", fail}, // the paper's core WORM criticism
		{"corrections supported", "relational", pass},
		{"correction history kept", "relational", fail},
		{"correction history kept", "crypt-only", fail},
		{"secure deletion", "crypt-only", fail},
		{"secure deletion", "relational", fail},
		{"secure deletion", "object-store", fail},
		{"secure deletion", "worm", pass},
		{"media sanitization", "worm", fail}, // append-only media retains shredded ciphertext
		{"media sanitization", "relational", fail},
		{"retention enforced", "relational", fail},
		{"retention enforced", "worm", pass},
		{"tamper-evident audit", "crypt-only", fail},
		{"custody provenance", "worm", fail},
		{"verifiable migration", "relational", fail},
		{"verified backup", "object-store", fail},
		{"index privacy", "relational", fail},
	} {
		if got := cellOf(t, tbl, c.req, c.store); got != c.want {
			t.Errorf("E1[%q][%s] = %s, want %s", c.req, c.store, got, c.want)
		}
	}
}

// durOf reads a duration cell, as fmtDur prints it.
func durOf(t *testing.T, tbl Table, rowName, col string) time.Duration {
	t.Helper()
	cell := cellOf(t, tbl, rowName, col)
	d, err := time.ParseDuration(cell)
	if err != nil {
		t.Fatalf("%s[%q][%s] = %q: %v", tbl.ID, rowName, col, cell, err)
	}
	return d
}

// numOf reads the number a cell starts with ("1654", "7/15", "8 (all
// detected)").
func numOf(t *testing.T, tbl Table, rowName, col string) float64 {
	t.Helper()
	cell := cellOf(t, tbl, rowName, col)
	var v float64
	if _, err := fmt.Sscanf(cell, "%g", &v); err != nil {
		t.Fatalf("%s[%q][%s] = %q: %v", tbl.ID, rowName, col, cell, err)
	}
	return v
}

func TestE2TradeOffShape(t *testing.T) {
	tbl, err := E2(150)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	// The relational baseline must be the fastest writer; the hybrid pays
	// overhead but stays within a sane constant factor (<2000x here as an
	// alarm threshold; observed is typically ~10-100x).
	relPut, mvPut := durOf(t, tbl, "relational", "put/op"), durOf(t, tbl, "medvault", "put/op")
	if relPut >= mvPut {
		t.Errorf("relational put (%v) not faster than medvault (%v)", relPut, mvPut)
	}
	if mvPut > relPut*2000 {
		t.Errorf("medvault put overhead pathological: %v vs %v", mvPut, relPut)
	}
	// Indexed search beats decrypt-scan search by a wide margin at n=150.
	coSearch, mvSearch := durOf(t, tbl, "crypt-only", "search/op"), durOf(t, tbl, "medvault", "search/op")
	if coSearch <= mvSearch {
		t.Errorf("scan search (%v) should be slower than SSE search (%v)", coSearch, mvSearch)
	}
}

func TestE2SeriesShape(t *testing.T) {
	tbl, err := E2Series([]int{50, 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 { // 5 stores x 2 sizes
		t.Fatalf("rows = %d, want 10", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("ragged row: %v", row)
		}
	}
}

func TestE3DetectionShape(t *testing.T) {
	tbl, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	// MedVault and WORM: nothing mounted goes undetected.
	for _, store := range []string{"medvault", "worm"} {
		for _, row := range tbl.Rows {
			if outcome := cellOf(t, tbl, row[0], store); outcome == "UNDETECTED" {
				t.Errorf("%s: %s undetected", store, row[0])
			}
		}
	}
	// The paper's §4 failures are reproduced.
	for _, c := range []struct {
		kind  attack.Kind
		store string
		want  string
	}{
		{attack.Replay, "crypt-only", "UNDETECTED"},
		{attack.FieldRewrite, "relational", "UNDETECTED"},
		{attack.CatalogSwap, "object-store", "UNDETECTED"},
		{attack.BitFlip, "object-store", "detected"},
	} {
		if got := cellOf(t, tbl, string(c.kind), c.store); got != c.want {
			t.Errorf("%s %s = %s, want %s", c.store, c.kind, got, c.want)
		}
	}
}

func TestE4IndexShape(t *testing.T) {
	tbl, err := E4([]int{800})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	scan, plainIdx, sseIdx := durOf(t, tbl, "800", "scan/op"), durOf(t, tbl, "800", "plain-idx/op"), durOf(t, tbl, "800", "sse-idx/op")
	if plainIdx >= scan || sseIdx >= scan {
		t.Errorf("index (%v plain / %v sse) not faster than scan (%v)", plainIdx, sseIdx, scan)
	}
	if numOf(t, tbl, "800", "plain leak") == 0 {
		t.Error("plaintext index leaked nothing — probe broken")
	}
	if sseLeak := numOf(t, tbl, "800", "sse leak"); sseLeak != 0 {
		t.Errorf("SSE index leaked %v keywords", sseLeak)
	}
}

func TestE5ShredShape(t *testing.T) {
	tbl, err := E5(10)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	for store, want := range map[string]string{
		"crypt-only":   "YES", // master key recovers freed ciphertext
		"relational":   "YES", // plaintext residue
		"object-store": "YES", // plaintext residue
		"worm":         "no",
		"medvault":     "no",
	} {
		if got := cellOf(t, tbl, store, "recoverable"); got != want {
			t.Errorf("E5[%s] recoverable = %s, want %s", store, got, want)
		}
	}
}

func TestE6MigrationShape(t *testing.T) {
	tbl, err := E6(8)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	if migrated := numOf(t, tbl, "honest channel", "migrated"); migrated != 8 {
		t.Errorf("honest migration moved %v/8", migrated)
	}
	if detected := numOf(t, tbl, "tampering channel", "failed"); detected != 8 {
		t.Errorf("tampering channel: %v/8 detected", detected)
	}
}

func TestE7AuditShape(t *testing.T) {
	tbl, err := E7([]int{400, 3200})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	small, large := durOf(t, tbl, "400", "verify(all)"), durOf(t, tbl, "3200", "verify(all)")
	// Verification should grow with size (roughly linear; assert at least
	// 2x over an 8x size increase to stay timing-noise tolerant).
	if large < small*2 {
		t.Logf("verification cost barely grew (%v -> %v); acceptable on fast machines", small, large)
	}
	if large <= 0 || small <= 0 {
		t.Error("zero verification cost measured")
	}
}

func TestE8RunsClean(t *testing.T) {
	tbl, err := E8(40)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	if len(tbl.Rows) != 5 {
		t.Errorf("E8 rows = %d, want 5", len(tbl.Rows))
	}
	// Incremental must be much smaller than the full backup.
	last := tbl.Rows[len(tbl.Rows)-1]
	if !strings.Contains(last[0], "incremental") {
		t.Fatalf("last row = %v", last)
	}
}

func TestE9OverheadShape(t *testing.T) {
	tbl, err := E9(120)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	rel, mv := numOf(t, tbl, "relational", "bytes/record"), numOf(t, tbl, "medvault", "bytes/record")
	if rel <= 0 || mv <= 0 {
		t.Fatalf("bad measurements: relational %v, medvault %v", rel, mv)
	}
	if mv <= rel {
		t.Error("hybrid should cost more per record than the bare relational baseline")
	}
	if mv > rel*20 {
		t.Errorf("hybrid overhead pathological: %.0f vs %.0f bytes/record", mv, rel)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID: "EX", Title: "sample", Note: "note",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"x", "yyyy"}},
	}
	s := tbl.String()
	for _, want := range []string{"EX — sample", "note", "a", "bb", "yyyy", "--"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}
