package experiments

import (
	"fmt"

	"medvault/internal/attack"
	"medvault/internal/stores"
)

// E3 regenerates the insider-attack detection matrix: every attack mounted
// against a fresh instance of every storage model, with detection judged by
// the model's own verification. The expected shape matches the paper's §4
// analysis: the models without external commitments (encryption-only,
// relational, the object store's catalog) silently accept rollback and
// rewriting; the commitment-logged stores detect everything mountable.
func E3() (Table, error) {
	subjects, err := NewSubjects()
	if err != nil {
		return Table{}, err
	}
	header := []string{"attack"}
	for _, s := range subjects {
		header = append(header, s.Store.Name())
	}
	t := Table{
		ID:     "E3",
		Title:  "Insider attack detection by storage model",
		Note:   "detected = model's verification flags it; UNDETECTED = silently accepted; n/a = model has no such surface.",
		Header: header,
	}
	for _, kind := range attack.Kinds() {
		row := []string{string(kind)}
		for i := range subjects {
			// One fresh instance per (attack, store) pair.
			fresh, err := NewSubjects()
			if err != nil {
				return Table{}, err
			}
			sub := fresh[i]
			victim, other, err := seedForAttack(sub.Store)
			if err != nil {
				return Table{}, fmt.Errorf("E3 seeding %s: %w", sub.Store.Name(), err)
			}
			res := attack.Mount(sub.Store, kind, victim, other)
			row = append(row, res.Outcome())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func seedForAttack(s stores.Store) (victim, other string, err error) {
	recs := Corpus(6)
	if err := seed(s, recs); err != nil {
		return "", "", err
	}
	_ = s.Correct(correctionOf(recs[0])) // WORM refuses; replay then has no target, as intended
	return recs[0].ID, recs[1].ID, nil
}
