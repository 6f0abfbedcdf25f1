package core

import (
	"fmt"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/vcrypto"
)

// tortureEpoch is the fixed start of vault time in the fault-injection
// fixtures below, so every such test is deterministic given the same build.
var tortureEpoch = time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)

// sentinelPrefix starts the plaintext marker embedded in every fixture body;
// a medium scan greps for it.
const sentinelPrefix = "TORTURE-SENTINEL"

func sentinel(id string, version int) string {
	return fmt.Sprintf("%s-%s-v%d", sentinelPrefix, id, version)
}

// tortureRecord is version of clinical record id, created at at.
func tortureRecord(id string, version int, at time.Time) ehr.Record {
	return ehr.Record{
		ID:        id,
		Patient:   "Pat Torture",
		MRN:       "mrn-" + id,
		Category:  ehr.CategoryClinical,
		Author:    "dr-house",
		CreatedAt: at,
		Title:     "torture note " + id,
		Body:      fmt.Sprintf("%s hypertension follow-up, dosage adjusted", sentinel(id, version)),
		Codes:     []string{"I10"},
	}
}

// openTorture opens (or reopens) the fixture vault over fsys and registers
// its staff — authorization state is in-memory by design, so every mount
// re-registers it.
func openTorture(fsys faultfs.FS, shards int) (*Cluster, *clock.Virtual, error) {
	var seed [32]byte
	copy(seed[:], "medvault-torture-master-seed-32b")
	master, err := vcrypto.KeyFromBytes(seed[:])
	if err != nil {
		return nil, nil, err
	}
	vc := clock.NewVirtual(tortureEpoch)
	v, err := Open(Config{Name: "torture", Master: master, Clock: vc, Dir: "vault", FS: fsys, Shards: shards})
	if err != nil {
		return nil, nil, err
	}
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	if err := a.AddPrincipal("dr-house", "physician"); err != nil {
		v.Close()
		return nil, nil, err
	}
	if err := a.AddPrincipal("arch-lee", "archivist"); err != nil {
		v.Close()
		return nil, nil, err
	}
	return v, vc, nil
}
