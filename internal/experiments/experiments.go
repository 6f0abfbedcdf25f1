// Package experiments implements the evaluation harness. The paper is a
// requirements paper with no tables or figures of its own; each experiment
// here operationalizes one of its prose claims (DESIGN.md maps them):
//
//	E1  requirements-vs-models compliance matrix   (paper §3 + §4)
//	E2  security/performance trade-off             (§4 closing paragraph)
//	E2b the same latencies across corpus sizes     (§4)
//	E3  insider-attack detection matrix            (§3 Integrity, §4)
//	E4  trustworthy index: cost and leakage        (§3 Availability, refs [9])
//	E5  secure deletion / media re-use             (§2 §164.310(d)(2), §3)
//	E6  trustworthy migration                      (§1, §3 Long Retention)
//	E7  audit trail scalability                    (§3 Logging)
//	E8  retention sweep + backup/restore           (§3 Retention, Backup)
//	E9  storage cost overhead                      (§3 Cost)
//
// cmd/medbench prints these tables. The package's tests read the same
// tables, cell by cell, and assert the paper's qualitative claims hold (who
// wins, what is detected, what leaks); one of them checks that EXPERIMENTS.md
// quotes every cell that does not depend on timing as medbench prints it.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/stores"
	"medvault/internal/stores/cryptonly"
	"medvault/internal/stores/objstore"
	"medvault/internal/stores/reldb"
	"medvault/internal/vcrypto"
	"medvault/internal/worm"
)

// Epoch is the fixed virtual time experiments start at.
var Epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned plain text.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "%s\n", t.Note)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// Subject is one storage model under test, with the hooks experiments need
// beyond the plain store interface.
type Subject struct {
	Store stores.Store
	// Clock is the virtual clock the store reads (nil for models that
	// ignore time).
	Clock *clock.Virtual
	// Vault is non-nil for the MedVault subject.
	Vault *core.Cluster
	// Cryptonly is non-nil for the encryption-only subject.
	Cryptonly *cryptonly.Store
}

// NewSubjects builds one fresh instance of each of the five storage models,
// all reading the same virtual clock.
func NewSubjects() ([]Subject, error) {
	vc := clock.NewVirtual(Epoch)
	k1, err := vcrypto.NewKey()
	if err != nil {
		return nil, err
	}
	k2, err := vcrypto.NewKey()
	if err != nil {
		return nil, err
	}
	k3, err := vcrypto.NewKey()
	if err != nil {
		return nil, err
	}
	co := cryptonly.New(k1)
	v, err := core.Open(core.Config{Name: "medvault-bench", Master: k3, Clock: vc})
	if err != nil {
		return nil, err
	}
	adapter, err := core.NewAdapter(v)
	if err != nil {
		return nil, err
	}
	return []Subject{
		{Store: co, Clock: vc, Cryptonly: co},
		{Store: reldb.New(), Clock: vc},
		{Store: objstore.New(), Clock: vc},
		{Store: worm.New(worm.Config{Master: k2, Clock: vc}), Clock: vc},
		{Store: adapter, Clock: vc, Vault: v},
	}, nil
}

// Corpus returns n deterministic synthetic records.
func Corpus(n int) []ehr.Record {
	return ehr.NewGenerator(4242, Epoch).Corpus(n)
}

// seed loads records into a store, failing loudly on error.
func seed(s stores.Store, recs []ehr.Record) error {
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			return fmt.Errorf("seeding %s with %s: %w", s.Name(), r.ID, err)
		}
	}
	return nil
}

// advanceYears moves the virtual clock forward.
func advanceYears(vc *clock.Virtual, years int) {
	vc.Advance(time.Duration(years) * 365 * 24 * time.Hour)
}

// timeOp measures the wall time of fn over n iterations and returns
// (total, per-op).
func timeOp(n int, fn func(i int) error) (time.Duration, time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	total := time.Since(start)
	if n == 0 {
		return total, 0, nil
	}
	return total, total / time.Duration(n), nil
}

// fmtDur renders a duration compactly for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtRate renders ops/sec.
func fmtRate(n int, total time.Duration) string {
	if total <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f/s", float64(n)/total.Seconds())
}
