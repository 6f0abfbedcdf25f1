// Secure deletion: records reach the end of their mandated retention period
// (OSHA's 30-year occupational records among them), are found by the expiry
// sweep, survive a legal hold, and are finally crypto-shredded — after which
// no plaintext is recoverable from any byte the system ever wrote, which is
// HIPAA's media-disposal and re-use requirement (§164.310(d)(2)).
//
//	go run ./examples/secure_deletion
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/vcrypto"
)

const year = 365 * 24 * time.Hour

func main() {
	ctx := context.Background()
	master, err := vcrypto.NewKey()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	vc := clock.NewVirtual(start)
	vault, err := core.Open(core.Config{Name: "records-office", Master: master, Clock: vc})
	if err != nil {
		log.Fatal(err)
	}
	defer vault.Close()
	az := vault.Authz()
	for _, role := range authz.StandardRoles() {
		az.DefineRole(role)
	}
	// Occupational-health records need their own role: none of the standard
	// clinical roles may touch OSHA exposure records (minimum necessary).
	az.DefineRole(authz.NewRole("occ-health", []authz.Action{
		authz.ActRead, authz.ActWrite, authz.ActCorrect, authz.ActSearch,
	}, "occupational"))
	for id, role := range map[string]string{
		"dr-wu": "physician", "arch-diaz": "archivist", "clerk-ma": "billing-clerk",
		"oh-nurse": "occ-health",
	} {
		if err := az.AddPrincipal(id, role); err != nil {
			log.Fatal(err)
		}
	}
	adapter, err := core.NewAdapter(vault) // for the raw-bytes residue probe
	if err != nil {
		log.Fatal(err)
	}

	// A mix of schedules: clinical (6y), billing (7y), occupational (30y).
	mk := func(id string, cat ehr.Category, patient, body string) ehr.Record {
		return ehr.Record{
			ID: id, Patient: patient, MRN: id[:8], Category: cat,
			Author: "dr-wu", CreatedAt: start, Title: "note", Body: body,
		}
	}
	clinical := mk("mrn-2001/enc-0", ehr.CategoryClinical, "Noor Haddad", "migraine management plan")
	billing := mk("mrn-2001/bill-0", ehr.CategoryBilling, "Noor Haddad", "claim settled in full")
	exposure := mk("mrn-2002/occ-0", ehr.CategoryOccupational, "Viktor Petrov", "asbestos exposure assessment")
	if _, err := vault.PutCtx(ctx, "dr-wu", clinical); err != nil {
		log.Fatal(err)
	}
	if _, err := vault.PutCtx(ctx, "clerk-ma", billing); err != nil {
		log.Fatal(err)
	}
	if _, err := vault.PutCtx(ctx, "oh-nurse", exposure); err != nil {
		log.Fatal(err)
	}
	for _, id := range []string{clinical.ID, billing.ID, exposure.ID} {
		exp, err := vault.Retention().ExpiresAt(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s retained until %s\n", id, exp.Format("2006-01-02"))
	}

	// Premature destruction is refused — keeping records is as mandatory as
	// eventually destroying them.
	if err := vault.ShredCtx(ctx, "arch-diaz", clinical.ID); err != nil {
		fmt.Printf("\nyear 0 shred attempt refused: %v\n", err)
	}

	// Eight years on: the sweep finds the clinical and billing records.
	vc.Advance(8 * year)
	fmt.Printf("\nyear 8 expiry sweep: %v\n", vault.ExpiredRecords())

	// Litigation intervenes: legal hold on the clinical record. Placing it
	// through the vault makes it durable and writes it to the audit trail.
	if err := vault.PlaceHoldCtx(ctx, "arch-diaz", clinical.ID, "Haddad v. Records Office, case 26-441"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("legal hold placed; sweep now returns: %v\n", vault.ExpiredRecords())
	if err := vault.ShredCtx(ctx, "arch-diaz", clinical.ID); err != nil {
		fmt.Printf("shred under hold refused: %v\n", err)
	}

	// Case closes; dispose of the billing record and (after release) the
	// clinical one. Shredding destroys the per-record data key: the
	// ciphertext still sits in the append-only log, unreadable forever.
	if err := vault.ReleaseHoldCtx(ctx, "arch-diaz", clinical.ID); err != nil {
		log.Fatal(err)
	}
	for _, id := range []string{billing.ID, clinical.ID} {
		if err := vault.ShredCtx(ctx, "arch-diaz", id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shredded %s\n", id)
	}

	// The residue probe: scan EVERY byte the system ever wrote (freed
	// sectors included) for the disposed patients' data.
	raw := adapter.RawBytes()
	for _, probe := range []string{"Noor Haddad", "migraine", "claim settled"} {
		if bytes.Contains(raw, []byte(probe)) {
			log.Fatalf("RESIDUE FOUND: %q recoverable from disposed media", probe)
		}
	}
	fmt.Println("media residue probe: no disposed plaintext recoverable")

	// The occupational record is untouched — 22 more years to go.
	if _, _, err := vault.GetCtx(ctx, "oh-nurse", exposure.ID); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("occupational record intact (OSHA 30-year rule); sweep: %v\n", vault.ExpiredRecords())

	// Reads of the disposed records fail with a distinct, truthful error.
	if _, _, err := vault.GetCtx(ctx, "dr-wu", clinical.ID); errors.Is(err, core.ErrShredded) {
		fmt.Println("disposed record reads report 'securely deleted', not 'not found'")
	}

	// And the vault still verifies: destruction is accounted for, not hidden.
	report, err := vault.VerifyAll(nil, nil)
	if err != nil {
		log.Fatalf("integrity failure after disposal: %v", err)
	}
	fmt.Printf("post-disposal integrity sweep clean (%d records, %d versions)\n",
		report.RecordsChecked, report.VersionsChecked)
}
