// Package ehr defines MedVault's electronic health record model and a
// deterministic synthetic record generator.
//
// The generator is the substitute for real EPHI (which a reproduction cannot
// and must not use): it produces patients, encounters, diagnoses, and
// narrative notes with a skewed condition distribution, so the search and
// index experiments see realistic keyword frequencies — a few very common
// terms ("hypertension") and a long tail of rare ones — while every byte is
// synthetic and reproducible from a seed.
package ehr

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Category classifies a record for access control and retention.
type Category string

// Record categories. They line up with the authz roles and retention
// policies: clinical/lab/imaging for care delivery, billing for
// administration, occupational for OSHA-regulated exposure records.
const (
	CategoryClinical     Category = "clinical"
	CategoryLab          Category = "lab"
	CategoryImaging      Category = "imaging"
	CategoryBilling      Category = "billing"
	CategoryOccupational Category = "occupational"
)

// Categories lists all record categories.
func Categories() []Category {
	return []Category{CategoryClinical, CategoryLab, CategoryImaging, CategoryBilling, CategoryOccupational}
}

// Record is one health record version's content. Versioning (corrections)
// lives in the vault layer; a Record is the payload of a single version.
type Record struct {
	ID        string   // stable record identifier, e.g. "mrn-000042/enc-3"
	Patient   string   // patient display name (synthetic)
	MRN       string   // medical record number
	Category  Category // drives authorization scope and retention schedule
	Author    string   // clinician who wrote this version
	CreatedAt time.Time
	Title     string
	Body      string   // narrative note; the text that gets indexed
	Codes     []string // diagnosis codes (ICD-like, synthetic)
}

// SearchText returns the text the index ingests for this record.
func (r Record) SearchText() string {
	return r.Title + " " + r.Body + " " + strings.Join(r.Codes, " ")
}

// ErrInvalid is wrapped by every Validate failure, so callers classify a
// malformed record without parsing messages.
var ErrInvalid = errors.New("ehr: invalid record")

// invalidError is a Validate failure: its message is the whole text, and it
// unwraps to ErrInvalid.
type invalidError string

func (e invalidError) Error() string { return string(e) }
func (invalidError) Unwrap() error   { return ErrInvalid }

func invalid(format string, args ...any) error {
	return invalidError(fmt.Sprintf(format, args...))
}

// Validate checks structural invariants before storage.
func (r Record) Validate() error {
	switch {
	case r.ID == "":
		return invalid("ehr: record has empty ID")
	case r.MRN == "":
		return invalid("ehr: record %s has empty MRN", r.ID)
	case r.Category == "":
		return invalid("ehr: record %s has empty category", r.ID)
	case r.Author == "":
		return invalid("ehr: record %s has empty author", r.ID)
	}
	for _, c := range Categories() {
		if r.Category == c {
			return nil
		}
	}
	return invalid("ehr: record %s has unknown category %q", r.ID, r.Category)
}

// --- synthetic corpus ---

var (
	firstNames = []string{
		"Alice", "Bruno", "Chen", "Divya", "Elena", "Farid", "Grace", "Hugo",
		"Imani", "Jonas", "Keiko", "Luis", "Mara", "Noor", "Omar", "Priya",
		"Quinn", "Rosa", "Samir", "Tove", "Uma", "Viktor", "Wanda", "Xiu",
		"Yusuf", "Zofia",
	}
	lastNames = []string{
		"Abbott", "Bergström", "Castillo", "Dubois", "Eriksen", "Fujimoto",
		"García", "Haddad", "Ivanova", "Jensen", "Kowalski", "Lindqvist",
		"Moreau", "Nakamura", "Okafor", "Petrov", "Quispe", "Rossi",
		"Schneider", "Tanaka", "Ueda", "Varga", "Weber", "Xu", "Yamada", "Zhou",
	}
	// conditions is ordered from most to least common; the generator draws
	// with a Zipf-like skew over this order.
	conditions = []struct {
		name string
		code string
	}{
		{"hypertension", "I10"},
		{"diabetes", "E11"},
		{"hyperlipidemia", "E78"},
		{"asthma", "J45"},
		{"depression", "F32"},
		{"osteoarthritis", "M19"},
		{"hypothyroidism", "E03"},
		{"migraine", "G43"},
		{"anemia", "D64"},
		{"pneumonia", "J18"},
		{"appendicitis", "K35"},
		{"melanoma", "C43"},
		{"lymphoma", "C85"},
		{"sarcoidosis", "D86"},
		{"thymoma", "C37"},
	}
	clinicians = []string{
		"dr-adams", "dr-baker", "dr-cho", "dr-diaz", "dr-evans",
		"dr-fox", "dr-gupta", "dr-hall",
	}
	noteTemplates = []string{
		"Patient presents with symptoms consistent with %s. Vitals stable. Plan: continue monitoring and follow up in two weeks.",
		"Follow-up visit regarding %s. Patient reports improvement on current regimen. Medication dosage unchanged.",
		"Initial consultation for suspected %s. Ordered laboratory panel and referred to specialist for further evaluation.",
		"Emergency department visit. Acute presentation of %s. Patient stabilized and admitted for observation overnight.",
		"Annual physical examination. History notable for %s. Preventive screening recommended per guidelines.",
	}
)

// Generator produces a deterministic synthetic corpus. The same seed always
// yields the same records, which keeps experiments reproducible.
type Generator struct {
	rng  *rand.Rand
	base time.Time
	seq  int
}

// NewGenerator returns a Generator seeded with seed; records are timestamped
// starting at base (zero means 2020-01-01 UTC).
func NewGenerator(seed int64, base time.Time) *Generator {
	if base.IsZero() {
		base = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), base: base}
}

// skewedCondition draws a condition index with a Zipf-like distribution:
// index 0 is drawn far more often than index len-1.
func (g *Generator) skewedCondition() int {
	// Repeatedly halve the range with probability 1/2: geometric over ranks.
	n := len(conditions)
	i := 0
	for i < n-1 && g.rng.Intn(2) == 0 {
		i++
	}
	return i
}

// Next returns the next synthetic record. Categories cycle with a clinical
// bias; each record names one primary condition whose keyword appears in
// title, body, and code, so searches have unambiguous ground truth.
func (g *Generator) Next() Record {
	i := g.seq
	g.seq++
	cond := conditions[g.skewedCondition()]
	cat := CategoryClinical
	switch i % 10 {
	case 3:
		cat = CategoryLab
	case 5:
		cat = CategoryImaging
	case 7:
		cat = CategoryBilling
	case 9:
		cat = CategoryOccupational
	}
	first := firstNames[g.rng.Intn(len(firstNames))]
	last := lastNames[g.rng.Intn(len(lastNames))]
	mrn := fmt.Sprintf("mrn-%06d", i/3) // ~3 records per patient
	return Record{
		ID:        fmt.Sprintf("%s/enc-%d", mrn, i%3),
		Patient:   first + " " + last,
		MRN:       mrn,
		Category:  cat,
		Author:    clinicians[g.rng.Intn(len(clinicians))],
		CreatedAt: g.base.Add(time.Duration(i) * time.Hour),
		Title:     fmt.Sprintf("Encounter note: %s", cond.name),
		Body:      fmt.Sprintf(noteTemplates[g.rng.Intn(len(noteTemplates))], cond.name),
		Codes:     []string{cond.code},
	}
}

// Corpus returns the next n records.
func (g *Generator) Corpus(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Correction returns a plausible corrected version of r: same identity, new
// body text noting the amendment. This models the patient-requested
// corrections HIPAA grants and WORM stores cannot express.
func (g *Generator) Correction(r Record) Record {
	r.Body = r.Body + " AMENDMENT: prior note contained a transcription error; corrected per patient request."
	r.Author = clinicians[g.rng.Intn(len(clinicians))]
	r.CreatedAt = r.CreatedAt.Add(24 * time.Hour)
	return r
}

// CommonCondition returns the most frequent condition keyword — useful as a
// high-selectivity search term in experiments.
func CommonCondition() string { return conditions[0].name }

// ConditionNames returns all condition keywords, most common first.
func ConditionNames() []string {
	out := make([]string, len(conditions))
	for i, c := range conditions {
		out[i] = c.name
	}
	return out
}
