package main

import (
	"runtime"
	"strings"
	"testing"

	"medvault/internal/vaultcfg"
)

func TestRunValidation(t *testing.T) {
	if err := run("", "x", ":0", "n", "", "", "", "", vaultcfg.Options{}); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Errorf("missing dir: %v", err)
	}
	if err := run(t.TempDir(), "nothex", ":0", "n", "", "", "", "", vaultcfg.Options{}); err == nil {
		t.Errorf("bad key accepted")
	}
	if err := run(t.TempDir(), "x", ":0", "n", "cert-only", "", "", "", vaultcfg.Options{}); err == nil || !strings.Contains(err.Error(), "together") {
		t.Errorf("lopsided TLS flags: %v", err)
	}
	if err := runFollower("", "x", ":0", ":0", "n", "", "", vaultcfg.Options{}); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Errorf("follower missing dir: %v", err)
	}
	if err := runFollower(t.TempDir(), "nothex", ":0", ":0", "n", "", "", vaultcfg.Options{}); err == nil {
		t.Errorf("follower bad key accepted")
	}
}

func TestRunRefusesBadAddr(t *testing.T) {
	dir := t.TempDir()
	_, hexKey, err := vaultcfg.GenerateMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	// An unparseable listen address fails fast instead of serving.
	if err := run(dir, hexKey, "not-an-addr", "n", "", "", "", "", vaultcfg.Options{}); err == nil {
		t.Error("bad address accepted")
	}
}

// TestMemProfileRateNeedsADebugListener: the runtime samples the heap only
// for a primary with a debug listener, at its default rate; a server
// without one, and a follower, which never has one, sample nothing.
func TestMemProfileRateNeedsADebugListener(t *testing.T) {
	for _, c := range []struct {
		debugAddr string
		follow    bool
		want      int
	}{
		{"127.0.0.1:8601", false, runtime.MemProfileRate},
		{"", false, 0},
		{"", true, 0},
		{"127.0.0.1:8601", true, 0},
	} {
		if got := memProfileRate(c.debugAddr, c.follow); got != c.want {
			t.Errorf("memProfileRate(%q, %t) = %d, want %d", c.debugAddr, c.follow, got, c.want)
		}
	}
}
