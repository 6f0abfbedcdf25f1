package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/obs"
)

// legacyFlightSegment is a v2 flight segment as the previous encoder wrote it:
// a put and a get of record token a1b2c3d4e5f6, 2 ms apart, in frame.Seq
// frames whose headers carry seqs 1 and 2.
const legacyFlightSegment = "00000000000000010000002654564b6002aab4aed8c7bfce972fc0843d067075740da1b2c3d4e5f6110123456789abcdef046f6b00" +
	"00000000000000000200000021a4fc548b028092f401c0843d066765740da1b2c3d4e5f6110123456789abcdef046f6b0000"

// TestFlightTailReadsLegacyThenV3 is the upgrade path: a vault whose flight
// directory holds a segment an older binary wrote reopens, writes its own
// segment in the current layout, and ReadFlightTail decodes both, in order.
func TestFlightTailReadsLegacyThenV3(t *testing.T) {
	mem := faultfs.NewMem()
	legacy, err := hex.DecodeString(legacyFlightSegment)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.MkdirAll("vault/flight", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteFile("vault/flight/flight-00000001.seg", legacy, 0o600); err != nil {
		t.Fatal(err)
	}
	c, _, err := openTorture(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutCtx(context.Background(), "dr-house", tortureRecord("upgrade-rec", 1, tortureEpoch)); err != nil {
		t.Fatal(err)
	}
	token := c.RecordToken("upgrade-rec")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadFlightTail(mem, "vault")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("decoded %d events, want the 2 legacy ones and the put: %+v", len(evs), evs)
	}
	at := time.Unix(0, 1700000000123456789)
	for i, want := range []struct {
		kind string
		seq  uint64
		at   time.Time
	}{{"put", 1, at}, {"get", 2, at.Add(2 * time.Millisecond)}} {
		if ev := evs[i]; ev.Kind != want.kind || ev.Seq != want.seq || !ev.Time.Equal(want.at) ||
			ev.Record != "a1b2c3d4e5f6" || ev.Trace != "0123456789abcdef" || ev.Outcome != "ok" || ev.Dur != time.Millisecond {
			t.Errorf("legacy event %d decoded as %+v", i, ev)
		}
	}
	if ev := evs[2]; ev.Kind != "put" || ev.Record != token || ev.Outcome != "ok" {
		t.Errorf("the put decoded as %+v, want record %s", ev, token)
	}
}

// TestRecordTokenIsKeyed: the flight plane is served without authentication,
// so the token it carries for a (guessable) record ID is keyed by the vault's
// master key. It is no unkeyed hash of the ID, differs under another master
// key, and is the same on every shard, so a record's events still join.
func TestRecordTokenIsKeyed(t *testing.T) {
	const id = "mrn-000123/enc-0"
	open := func(shards int) *Cluster {
		c, err := Open(Config{Name: "tokens", Master: mustKey(t), Clock: mustClock(), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := open(4), open(1)
	token := a.RecordToken(id)
	unkeyed := sha256.Sum256([]byte("medvault-flight:" + id))
	switch {
	case len(token) != 12:
		t.Fatalf("token %q is not 12 hex digits", token)
	case token == hex.EncodeToString(unkeyed[:6]):
		t.Fatalf("token %s is the unkeyed hash of the ID", token)
	case token == b.RecordToken(id):
		t.Fatalf("token %s is the same under two master keys", token)
	case a.RecordToken("") != "":
		t.Fatal("the empty ID has a token")
	}
	for i := range a.NumShards() {
		if got := a.Shard(i).recordToken(id); got != token {
			t.Fatalf("shard %d token %s, cluster's %s", i, got, token)
		}
	}
}

// TestEnvelopeWordsAreOneByte: every op the envelope reports and every
// outcome label is a word of the flight vocabularies, so the event stores it
// in one byte. An event with only a kind and an outcome, seq 1 at Unix time
// 0, is a segment of 15 bytes: the magic, a one-byte length, the CRC, and
// nine one-byte fields.
func TestEnvelopeWordsAreOneByte(t *testing.T) {
	segment := func(ev obs.FlightEvent) int {
		mem := faultfs.NewMem()
		sink, err := obs.OpenFlightSink(mem, "flight")
		if err != nil {
			t.Fatal(err)
		}
		ev.Seq, ev.Time = 1, time.Unix(0, 0)
		sink.Append(ev)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := mem.ReadFile("flight/flight-00000001.seg")
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	for op := range opSpans {
		if n := segment(obs.FlightEvent{Kind: op, Outcome: "ok"}); n != 15 {
			t.Errorf("op %q: a %d-byte segment, want 15", op, n)
		}
	}
	for _, label := range OutcomeLabels() {
		if n := segment(obs.FlightEvent{Kind: "put", Outcome: label}); n != 15 {
			t.Errorf("outcome %q: a %d-byte segment, want 15", label, n)
		}
	}
}
