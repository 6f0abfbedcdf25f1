package main

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"medvault/internal/vaultcfg"
	"medvault/internal/vcrypto"
)

// run dispatches a CLI invocation in-process. Because the binary's
// subcommands open and close the vault per invocation, these tests exercise
// durable reopen on every step, exactly like real CLI usage.
func run(t *testing.T, args ...string) error {
	t.Helper()
	return dispatch(args[0], args[1:])
}

func setupVault(t *testing.T) (dir, key string) {
	t.Helper()
	dir = t.TempDir()
	master, hexKey, err := vaultcfg.GenerateMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	v, err := vaultcfg.Open(dir, "medvault", master)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	for p, r := range map[string]string{
		"dr-a": "physician", "kim": "compliance-officer", "lee": "archivist",
	} {
		if err := vaultcfg.Grant(dir, p, []string{r}); err != nil {
			t.Fatal(err)
		}
	}
	return dir, hexKey
}

func TestCLIWorkflow(t *testing.T) {
	dir, key := setupVault(t)
	base := []string{"-dir", dir, "-key", key}

	put := append([]string{"put"}, base...)
	put = append(put, "-actor", "dr-a", "-id", "p1/enc-0", "-mrn", "p1",
		"-patient", "Ada L.", "-category", "clinical",
		"-title", "Visit", "-body", "suspected hypertension", "-codes", "I10")
	if err := run(t, put...); err != nil {
		t.Fatalf("put: %v", err)
	}

	if err := run(t, append([]string{"get"}, append(base, "-actor", "dr-a", "-id", "p1/enc-0")...)...); err != nil {
		t.Fatalf("get: %v", err)
	}
	corr := append([]string{"correct"}, append(base, "-actor", "dr-a", "-id", "p1/enc-0", "-body", "confirmed stage 1")...)
	if err := run(t, corr...); err != nil {
		t.Fatalf("correct: %v", err)
	}
	if err := run(t, append([]string{"history"}, append(base, "-actor", "dr-a", "-id", "p1/enc-0")...)...); err != nil {
		t.Fatalf("history: %v", err)
	}
	if err := run(t, append([]string{"search"}, append(base, "-actor", "dr-a", "-q", "hypertension")...)...); err != nil {
		t.Fatalf("search: %v", err)
	}
	if err := run(t, append([]string{"verify"}, base...)...); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := run(t, append([]string{"audit"}, append(base, "-actor", "kim")...)...); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if err := run(t, append([]string{"custody"}, append(base, "-actor", "kim", "-id", "p1/enc-0")...)...); err != nil {
		t.Fatalf("custody: %v", err)
	}
	if err := run(t, append([]string{"disclosures"}, append(base, "-actor", "kim", "-mrn", "p1")...)...); err != nil {
		t.Fatalf("disclosures: %v", err)
	}
	if err := run(t, append([]string{"prove"}, append(base, "-actor", "dr-a", "-id", "p1/enc-0", "-version", "2")...)...); err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := run(t, append([]string{"expired"}, base...)...); err != nil {
		t.Fatalf("expired: %v", err)
	}
	// Durable legal holds: place in one invocation, observe in the next.
	if err := run(t, append([]string{"hold"}, append(base, "-actor", "lee", "-id", "p1/enc-0", "-reason", "case 26-1")...)...); err != nil {
		t.Fatalf("hold: %v", err)
	}
	if err := run(t, append([]string{"holds"}, base...)...); err != nil {
		t.Fatalf("holds: %v", err)
	}
	if err := run(t, append([]string{"release"}, append(base, "-actor", "lee", "-id", "p1/enc-0")...)...); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := run(t, append([]string{"sanitize"}, append(base, "-actor", "lee")...)...); err != nil {
		t.Fatalf("sanitize: %v", err)
	}
}

func TestCLIBackupRestore(t *testing.T) {
	dir, key := setupVault(t)
	base := []string{"-dir", dir, "-key", key}
	put := append([]string{"put"}, base...)
	put = append(put, "-actor", "dr-a", "-id", "p1/enc-0", "-mrn", "p1",
		"-patient", "Ada L.", "-category", "clinical", "-title", "t", "-body", "b")
	if err := run(t, put...); err != nil {
		t.Fatal(err)
	}
	bk, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	bkHex := hex.EncodeToString(bk[:])
	out := filepath.Join(t.TempDir(), "v.bak")
	if err := run(t, append([]string{"backup"}, append(base, "-actor", "lee", "-backup-key", bkHex, "-out", out)...)...); err != nil {
		t.Fatalf("backup: %v", err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("archive missing: %v", err)
	}

	// Restore into a fresh vault.
	dir2, key2 := setupVault(t)
	base2 := []string{"-dir", dir2, "-key", key2}
	if err := run(t, append([]string{"restore"}, append(base2, "-actor", "lee", "-backup-key", bkHex, "-in", out)...)...); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := run(t, append([]string{"get"}, append(base2, "-actor", "dr-a", "-id", "p1/enc-0")...)...); err != nil {
		t.Fatalf("get after restore: %v", err)
	}
	if err := run(t, append([]string{"verify"}, base2...)...); err != nil {
		t.Fatalf("verify after restore: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	dir, key := setupVault(t)
	if err := run(t, "frobnicate"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("unknown command: %v", err)
	}
	if err := run(t, "get", "-key", key, "-actor", "dr-a", "-id", "x"); err == nil {
		t.Error("missing -dir accepted")
	}
	if err := run(t, "get", "-dir", dir, "-key", "nothex", "-actor", "dr-a", "-id", "x"); err == nil {
		t.Error("bad key accepted")
	}
	if err := run(t, "get", "-dir", dir, "-key", key, "-actor", "dr-a", "-id", "ghost"); err == nil {
		t.Error("missing record accepted")
	}
	// Denied actor surfaces as an error.
	if err := run(t, "audit", "-dir", dir, "-key", key, "-actor", "dr-a"); err == nil {
		t.Error("physician audit query accepted")
	}
	if err := run(t, "grant", "-dir", dir, "-principal", "x", "-roles", "warlock"); err == nil {
		t.Error("unknown role accepted")
	}
}

// TestCLIReportsFailedClose: Close writes the checkpoint, so a put whose
// checkpoint cannot write meta.snap.tmp (a directory squats on the name)
// must fail the command even though the put itself was acknowledged.
func TestCLIReportsFailedClose(t *testing.T) {
	dir, key := setupVault(t)
	if err := os.Mkdir(filepath.Join(dir, "meta.snap.tmp"), 0o700); err != nil {
		t.Fatal(err)
	}
	err := run(t, "put", "-dir", dir, "-key", key, "-actor", "dr-a", "-id", "r1", "-mrn", "p1",
		"-patient", "Ada L.", "-title", "t", "-body", "b")
	if err == nil || !strings.Contains(err.Error(), "meta.snap.tmp") {
		t.Fatalf("put over an unwritable checkpoint = %v, want the Close error", err)
	}
}
