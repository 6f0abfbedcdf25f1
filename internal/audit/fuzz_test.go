package audit

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecodeEvent hardens the audit-event decoder against arbitrary
// persisted bytes: no panics, and successful v3 decodes re-encode
// canonically (a legacy v2 event decodes but is never written again).
func FuzzDecodeEvent(f *testing.F) {
	f.Add(encodeEvent(Event{
		Timestamp: time.Unix(0, 42).UTC(), Actor: "dr-a",
		Action: ActionRead, Record: "r1", Version: 2,
		Outcome: OutcomeAllowed, Detail: "d", Trace: "0a1b", MAC: []byte{1, 2, 3},
	}))
	f.Add(encodeEvent(Event{Action: "unlisted", Outcome: "odd", Record: "ab"}))
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, legacy, err := parseEvent(data)
		if err != nil || legacy {
			return
		}
		if !bytes.Equal(encodeEvent(e), data) {
			t.Fatal("decode/encode not canonical")
		}
	})
}
