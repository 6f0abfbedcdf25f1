package experiments

import (
	"bufio"
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsMDQuotesTables regenerates the tables whose cells do not
// depend on timing and checks that EXPERIMENTS.md quotes each of those cells
// as medbench prints it at full scale. Timed cells are one run on the
// development machine and are not compared.
func TestExperimentsMDQuotesTables(t *testing.T) {
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	run := func(tbl Table, err error) Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	for _, c := range []struct {
		tbl  Table
		cols []string // nil: every column, and the same rows
	}{
		{run(E1()), nil},
		{run(E3()), nil},
		{run(E5(40)), []string{"recoverable", "residual plaintext", "key-recovery"}},
		{run(E6(50)), []string{"migrated", "failed", "custody spans systems"}},
		{run(E8(300)), []string{"records", "note"}},
		{run(E9(500)), []string{"bytes/record", "overhead vs relational"}},
	} {
		doc, ok := quotedTable(md, c.tbl.ID)
		if !ok {
			t.Errorf("EXPERIMENTS.md has no fenced table under \"## %s —\"", c.tbl.ID)
			continue
		}
		cols := c.cols
		if cols == nil {
			cols = c.tbl.Header[1:]
			if len(doc.Rows) != len(c.tbl.Rows) {
				t.Errorf("%s: EXPERIMENTS.md quotes %d rows, medbench prints %d", c.tbl.ID, len(doc.Rows), len(c.tbl.Rows))
			}
		}
		for _, row := range c.tbl.Rows {
			for _, col := range cols {
				if got, want := cellOf(t, doc, row[0], col), cellOf(t, c.tbl, row[0], col); got != want {
					t.Errorf("%s[%q][%s]: EXPERIMENTS.md says %q, medbench prints %q", c.tbl.ID, row[0], col, got, want)
				}
			}
		}
	}
}

var cellGap = regexp.MustCompile(` {2,}`)

// quotedTable parses the first fenced block under EXPERIMENTS.md's
// "## <id> —" heading: columns are split on runs of two or more spaces, the
// first line is the header, and dash-only separator rows are skipped.
func quotedTable(md []byte, id string) (Table, bool) {
	sc := bufio.NewScanner(bytes.NewReader(md))
	heading, fenced := false, false
	doc := Table{ID: id}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case !heading:
			heading = strings.HasPrefix(line, "## "+id+" —")
		case !fenced:
			if strings.HasPrefix(line, "## ") {
				return Table{}, false
			}
			fenced = strings.HasPrefix(line, "```")
		case strings.HasPrefix(line, "```"):
			return doc, doc.Header != nil
		default:
			cells := cellGap.Split(strings.TrimSpace(line), -1)
			if strings.Trim(strings.Join(cells, ""), "-") == "" {
				continue
			}
			if doc.Header == nil {
				doc.Header = cells
			} else {
				doc.Rows = append(doc.Rows, cells)
			}
		}
	}
	return Table{}, false
}
