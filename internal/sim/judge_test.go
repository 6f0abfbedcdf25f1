package sim

import (
	"testing"

	"medvault/internal/obs"
)

// getVersionReads counts the get_version operations vaults completed ok.
func getVersionReads() float64 {
	var n float64
	for _, f := range obs.Default.Snapshot() {
		if f.Name != "medvault_core_ops_total" {
			continue
		}
		for _, s := range f.Series {
			op, outcome := "", ""
			for _, l := range s.Labels {
				switch l.Key {
				case "op":
					op = l.Value
				case "outcome":
					outcome = l.Value
				}
			}
			if op == string(OpGetVersion) && outcome == "ok" {
				n += s.Value
			}
		}
	}
	return n
}

// TestStruckStepsReadBack: a medsim crash step and a fault step are judged
// like a torture scenario, so each of the judgement's two recovery passes
// reads every acked version back twice.
func TestStruckStepsReadBack(t *testing.T) {
	durable := []Step{
		tortureWrite(OpPut, "rec-a", 1),
		tortureWrite(OpPut, "rec-b", 1),
		tortureWrite(OpCorrect, "rec-a", 2),
	}
	for _, tc := range []struct {
		name   string
		struck []Step // the last step is the one judged
	}{
		{"crash", []Step{{Op: OpCrash}}},
		{"fault", []Step{{Op: OpENOSPC}, tortureWrite(OpPut, "rec-c", 1)}},
	} {
		e, err := newEngine(Plan{Format: traceFormat, Workers: 1, Durable: true, Name: "readback"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		steps := append(append([]Step(nil), durable...), tc.struck...)
		last := len(steps) - 1
		for i, s := range steps[:last] {
			if d := e.exec(i, s); d != nil {
				t.Fatalf("%s: %v", tc.name, d)
			}
		}
		before := getVersionReads()
		if d := e.exec(last, steps[last]); d != nil {
			t.Fatalf("%s: %v", tc.name, d)
		}
		got, want := getVersionReads()-before, float64(2*2*e.model.totalVersions())
		if got != want || want < 12 {
			t.Errorf("%s step read %v versions back, want %v: every acked version twice in each of two passes", tc.name, got, want)
		}
		e.hangUp()
	}
}
