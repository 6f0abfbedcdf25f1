package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"medvault/internal/faultfs"
	"medvault/internal/obs"
	"medvault/internal/vaultcfg"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errFn := fn()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if errFn != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", errFn, out)
	}
	return string(out)
}

// TestFlightSubcommandDecodesOffline is the offline black-box contract: after
// a vault has done work and closed, 'medvault flight -dir DIR' (no key)
// decodes the persisted segments and any postmortem bundles, and the output
// carries record tokens only — never the raw ID or record body.
func TestFlightSubcommandDecodesOffline(t *testing.T) {
	dir, key := setupVault(t)
	base := []string{"-dir", dir, "-key", key}
	put := append([]string{"put"}, base...)
	put = append(put, "-actor", "dr-a", "-id", "flight/rec-1", "-mrn", "p9",
		"-patient", "Grace H.", "-category", "clinical",
		"-title", "Flight note", "-body", "black box body text")
	if err := run(t, put...); err != nil {
		t.Fatalf("put: %v", err)
	}

	if _, err := obs.WritePostmortem(faultfs.OS{}, dir, "test reason", obs.PostmortemConfig{}); err != nil {
		t.Fatalf("writing bundle: %v", err)
	}

	out := captureStdout(t, func() error {
		return dispatch("flight", []string{"-dir", dir, "-op", "put"})
	})
	if !strings.Contains(out, "flight events:") {
		t.Fatalf("missing event header:\n%s", out)
	}
	if !strings.Contains(out, "record="+recordToken(t, dir, key, "flight/rec-1")) {
		t.Fatalf("missing the record token for the put:\n%s", out)
	}
	for _, leak := range []string{"flight/rec-1", "black box body text", "Grace H."} {
		if strings.Contains(out, leak) {
			t.Fatalf("output leaks %q:\n%s", leak, out)
		}
	}
	if !strings.Contains(out, "postmortem bundles: 1") || !strings.Contains(out, "test reason") {
		t.Fatalf("missing bundle summary:\n%s", out)
	}
}

// recordToken asks the vault under dir, opened with key, for the flight
// token of record id: only a holder of the master key can name it.
func recordToken(t *testing.T, dir, key, id string) string {
	t.Helper()
	master, err := vaultcfg.ParseMasterKey(key)
	if err != nil {
		t.Fatal(err)
	}
	c, err := vaultcfg.Open(dir, "medvault", master)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.RecordToken(id)
}

// legacyFlightSegment is a v2 flight segment as the previous encoder wrote it:
// a put and a get of record token a1b2c3d4e5f6, 2 ms apart, in 2023.
const legacyFlightSegment = "00000000000000010000002654564b6002aab4aed8c7bfce972fc0843d067075740da1b2c3d4e5f6110123456789abcdef046f6b00" +
	"00000000000000000200000021a4fc548b028092f401c0843d066765740da1b2c3d4e5f6110123456789abcdef046f6b0000"

// TestFlightSubcommandReadsLegacySegments is the upgrade path: a flight
// directory that holds a segment an older binary wrote, then the segments of
// this one, prints the events of both, in order.
func TestFlightSubcommandReadsLegacySegments(t *testing.T) {
	dir, key := setupVault(t)
	legacy, err := hex.DecodeString(legacyFlightSegment)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "flight", "flight-00000000.seg"), legacy, 0o600); err != nil {
		t.Fatal(err)
	}
	put := []string{"put", "-dir", dir, "-key", key, "-actor", "dr-a", "-id", "flight/rec-2", "-mrn", "p9",
		"-patient", "Grace H.", "-category", "clinical", "-title", "Flight note", "-body", "upgrade body"}
	if err := run(t, put...); err != nil {
		t.Fatalf("put: %v", err)
	}
	token := recordToken(t, dir, key, "flight/rec-2")

	out := captureStdout(t, func() error { return dispatch("flight", []string{"-dir", dir}) })
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && strings.HasPrefix(f[2], "record=") {
			got = append(got, f[1]+" "+f[2])
		}
	}
	want := []string{"put record=a1b2c3d4e5f6", "get record=a1b2c3d4e5f6", "put record=" + token}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("events %q, want %q:\n%s", got, want, out)
	}
	if n := strings.Count(out, "trace=0123456789abcdef outcome=ok dur=1ms"); n != 2 {
		t.Fatalf("%d legacy events kept their trace, outcome and duration, want 2:\n%s", n, out)
	}

	// The tail header says what the on-disk budget kept: every segment, every
	// event, from the legacy put to the newest event printed.
	segs, err := filepath.Glob(filepath.Join(dir, "flight", "flight-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var decoded int
	_, counts, _ := strings.Cut(out, "flight events: ")
	if _, err := fmt.Sscanf(counts, "%d decoded", &decoded); err != nil {
		t.Fatalf("no event count: %v\n%s", err, out)
	}
	legacyEvs, _ := obs.DecodeFlightSegment(legacy)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := strings.Fields(lines[len(lines)-2])[0] // the newest event, before the bundle line
	header := fmt.Sprintf("flight tail: %d segments, %d events, %s to %s", len(segs), decoded, legacyEvs[0].Time.Format(flightTimeLayout), last)
	if len(segs) < 2 || !strings.Contains(out, header+"\n") {
		t.Fatalf("missing header %q:\n%s", header, out)
	}
}
