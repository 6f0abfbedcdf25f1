package ehr

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(42, time.Time{}).Corpus(50)
	b := NewGenerator(42, time.Time{}).Corpus(50)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different corpora")
	}
	c := NewGenerator(43, time.Time{}).Corpus(50)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGeneratedRecordsValid(t *testing.T) {
	for i, r := range NewGenerator(1, time.Time{}).Corpus(500) {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if !strings.Contains(r.SearchText(), r.Codes[0]) {
			t.Fatalf("record %d: code missing from search text", i)
		}
	}
}

func TestGeneratedIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range NewGenerator(7, time.Time{}).Corpus(1000) {
		if seen[r.ID] {
			t.Fatalf("duplicate record ID %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestConditionSkew(t *testing.T) {
	// The most common condition must appear much more often than the
	// rarest; the index experiments depend on this skew.
	counts := make(map[string]int)
	for _, r := range NewGenerator(3, time.Time{}).Corpus(3000) {
		for _, c := range ConditionNames() {
			if strings.Contains(r.Body, c) {
				counts[c]++
			}
		}
	}
	common, rare := counts[CommonCondition()], counts[conditions[len(conditions)-1].name]
	if common < 1000 {
		t.Errorf("common condition appeared only %d times in 3000 records", common)
	}
	if rare >= common/10 {
		t.Errorf("distribution not skewed: common=%d rare=%d", common, rare)
	}
}

func TestCategoryMix(t *testing.T) {
	counts := make(map[Category]int)
	for _, r := range NewGenerator(5, time.Time{}).Corpus(1000) {
		counts[r.Category]++
	}
	for _, c := range Categories() {
		if counts[c] == 0 {
			t.Errorf("category %s never generated", c)
		}
	}
	if counts[CategoryClinical] < counts[CategoryBilling] {
		t.Error("clinical should dominate the mix")
	}
}

func TestCorrection(t *testing.T) {
	g := NewGenerator(9, time.Time{})
	orig := g.Next()
	corr := g.Correction(orig)
	if corr.ID != orig.ID || corr.MRN != orig.MRN || corr.Category != orig.Category {
		t.Error("correction changed record identity")
	}
	if !strings.Contains(corr.Body, "AMENDMENT") {
		t.Error("correction body lacks amendment marker")
	}
	if !corr.CreatedAt.After(orig.CreatedAt) {
		t.Error("correction not dated after original")
	}
}

func TestValidate(t *testing.T) {
	valid := Record{ID: "a", MRN: "m", Category: CategoryLab, Author: "dr"}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	for _, r := range []Record{
		{MRN: "m", Category: CategoryLab, Author: "dr"},
		{ID: "a", Category: CategoryLab, Author: "dr"},
		{ID: "a", MRN: "m", Author: "dr"},
		{ID: "a", MRN: "m", Category: CategoryLab},
		{ID: "a", MRN: "m", Category: "weird", Author: "dr"},
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("invalid record accepted: %+v", r)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, r := range NewGenerator(11, time.Time{}).Corpus(100) {
		got, err := Decode(Encode(r))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
		}
	}
}

func TestCodecDeterministic(t *testing.T) {
	r := NewGenerator(13, time.Time{}).Next()
	if string(Encode(r)) != string(Encode(r)) {
		t.Error("encoding not deterministic")
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(id, patient, mrn, author, title, body string, codes []string, nano int64) bool {
		r := Record{
			ID: id, Patient: patient, MRN: mrn, Category: CategoryClinical,
			Author: author, CreatedAt: time.Unix(0, nano).UTC(),
			Title: title, Body: body, Codes: codes,
		}
		got, err := Decode(Encode(r))
		if err != nil {
			return false
		}
		if len(r.Codes) == 0 {
			r.Codes = nil // codec canonicalizes empty to nil
		}
		return reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	r := NewGenerator(17, time.Time{}).Next()
	good := Encode(r)
	for _, bad := range [][]byte{
		nil,
		[]byte("XXXX"),
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0),
	} {
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("garbage accepted (len %d): %v", len(bad), err)
		}
	}
}
