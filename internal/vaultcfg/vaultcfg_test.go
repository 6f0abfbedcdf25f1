package vaultcfg

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
)

func TestMasterKeyRoundTrip(t *testing.T) {
	k, hexStr, err := GenerateMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseMasterKey(hexStr)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != k {
		t.Error("parsed key differs")
	}
	for _, bad := range []string{"", "zz", strings.Repeat("a", 63), strings.Repeat("a", 66)} {
		if _, err := ParseMasterKey(bad); !errors.Is(err, ErrBadMasterKey) {
			t.Errorf("ParseMasterKey(%q) = %v", bad, err)
		}
	}
	// Whitespace tolerated.
	if _, err := ParseMasterKey("  " + hexStr + "\n"); err != nil {
		t.Errorf("trimmed key rejected: %v", err)
	}
}

func TestGrantAndOpen(t *testing.T) {
	dir := t.TempDir()
	if err := Grant(dir, "dr-a", []string{"physician"}); err != nil {
		t.Fatal(err)
	}
	if err := Grant(dir, "kim", []string{"compliance-officer", "archivist"}); err != nil {
		t.Fatal(err)
	}
	// Replacing roles for an existing principal.
	if err := Grant(dir, "dr-a", []string{"physician", "admin"}); err != nil {
		t.Fatal(err)
	}
	if err := Grant(dir, "x", []string{"warlock"}); err == nil {
		t.Error("unknown role accepted")
	}

	k, _, err := GenerateMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	v, err := Open(dir, "clinic", k)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	rec := ehr.NewGenerator(1, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)).Next()
	if _, err := v.PutCtx(context.Background(), "dr-a", rec); err != nil {
		t.Errorf("granted physician cannot write: %v", err)
	}
	if _, err := v.PutCtx(context.Background(), "stranger", rec); err == nil {
		t.Error("ungranted principal wrote")
	}
	// The compliance officer granted via the file can query the audit log.
	events, err := v.AuditEventsCtx(context.Background(), "kim", audit.Query{DeniedOnly: true})
	if err != nil {
		t.Fatalf("granted officer cannot audit: %v", err)
	}
	if len(events) != 1 {
		t.Errorf("audited %d denials, want 1", len(events))
	}
}

func TestOpenRejectsMalformedPrincipals(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, PrincipalsFile), []byte("too many fields here\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	k, _, _ := GenerateMasterKey()
	if _, err := Open(dir, "clinic", k); err == nil {
		t.Error("malformed principals file accepted")
	}
}

func TestPrincipalsFileCommentsAndBlanks(t *testing.T) {
	dir := t.TempDir()
	content := "# staff\n\n  \ndr-b physician\n"
	if err := os.WriteFile(filepath.Join(dir, PrincipalsFile), []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	k, _, _ := GenerateMasterKey()
	v, err := Open(dir, "clinic", k)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if got := v.Authz().Principals(); len(got) != 1 || got[0] != "dr-b" {
		t.Errorf("principals = %v", got)
	}
}

func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{},
		{DEKCacheEntries: CacheDisabled, BlockCacheBytes: CacheDisabled},
		{DEKCacheEntries: 64, BlockCacheBytes: 1 << 20, Shards: 4},
		{Shards: 1},
	}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", o, err)
		}
	}
	invalid := []Options{
		{DEKCacheEntries: -2},
		{BlockCacheBytes: -7},
		{Shards: -1},
		{Shards: 100000},
	}
	for _, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a nonsensical value", o)
		}
	}
	// OpenWith enforces validation before touching the directory.
	k, _, _ := GenerateMasterKey()
	if _, err := OpenWith(t.TempDir(), "clinic", k, Options{BlockCacheBytes: -7}); err == nil {
		t.Error("OpenWith accepted an invalid option")
	}
}

func TestOpenWithShards(t *testing.T) {
	dir := t.TempDir()
	k, _, _ := GenerateMasterKey()
	c, err := OpenWith(dir, "clinic", k, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 4 {
		t.Errorf("NumShards = %d", c.NumShards())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Shards: 0 adopts the pinned count on reopen.
	c, err = OpenWith(dir, "clinic", k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumShards() != 4 {
		t.Errorf("adopted NumShards = %d", c.NumShards())
	}
}

// TestGrantCrashAtomic cuts power after every mutating filesystem op of a
// grant that rewrites an existing principals file, under every tail-survival
// policy: the crash image must hold the old file or the complete new one. A
// rename that outran its data's fsync shows up here as an empty or truncated
// principals.conf — which would lock every principal out at the next open.
func TestGrantCrashAtomic(t *testing.T) {
	path := filepath.Join("vault", PrincipalsFile)
	base := faultfs.NewMem()
	if err := grant(base, "vault", "dr-a", []string{"physician"}); err != nil {
		t.Fatal(err)
	}
	old, err := base.CrashImage(faultfs.KeepNone).ReadFile(path)
	if err != nil || !strings.Contains(string(old), "dr-a physician") {
		t.Fatalf("acked grant not durable: %q, %v", old, err)
	}
	counter := faultfs.NewFaulty(base.Clone(), nil)
	if err := grant(counter, "vault", "kim", []string{"compliance-officer"}); err != nil {
		t.Fatal(err)
	}
	complete, _ := counter.ReadFile(path)
	if counter.MutatingOps() < 4 {
		t.Fatalf("grant performed %d mutating ops; want at least open, write, sync, rename", counter.MutatingOps())
	}
	keeps := map[string]faultfs.KeepPolicy{"none": faultfs.KeepNone, "half": faultfs.KeepHalf, "all": faultfs.KeepAll}
	for i := 0; i < counter.MutatingOps(); i++ {
		for name, keep := range keeps {
			mem := base.Clone()
			_ = grant(faultfs.NewFaulty(mem, faultfs.CrashAfter(i)), "vault", "kim", []string{"compliance-officer"})
			got, err := mem.CrashImage(keep).ReadFile(path)
			if err != nil {
				t.Errorf("cut after op %d keep-%s: principals file gone: %v", i, name, err)
			} else if string(got) != string(old) && string(got) != string(complete) {
				t.Errorf("cut after op %d keep-%s: principals file is neither old nor new: %q", i, name, got)
			}
		}
	}
}
