// Patient rights: the HIPAA-facing workflows the paper's requirements exist
// to serve. A patient (through the compliance office) exercises the right of
// access, requests an accounting of disclosures — every hand that touched
// their chart, denials and emergency accesses included — requests a
// correction, and walks away with a cryptographic proof, checkable without
// trusting the hospital, that the record they saw is the one the vault
// committed to.
//
//	go run ./examples/patient_rights
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/vcrypto"
)

func main() {
	ctx := context.Background()
	master, err := vcrypto.NewKey()
	if err != nil {
		log.Fatal(err)
	}
	vc := clock.NewVirtual(time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC))
	vault, err := core.Open(core.Config{Name: "lakeside-clinic", Master: master, Clock: vc})
	if err != nil {
		log.Fatal(err)
	}
	defer vault.Close()
	az := vault.Authz()
	for _, role := range authz.StandardRoles() {
		az.DefineRole(role)
	}
	for id, role := range map[string]string{
		"dr-adams": "physician", "nurse-kim": "nurse",
		"clerk-roy": "billing-clerk", "officer-lau": "compliance-officer",
	} {
		if err := az.AddPrincipal(id, role); err != nil {
			log.Fatal(err)
		}
	}

	// The patient's chart accumulates over several visits.
	const mrn = "mrn-31337"
	mk := func(enc int, title, body string) ehr.Record {
		return ehr.Record{
			ID: fmt.Sprintf("%s/enc-%d", mrn, enc), MRN: mrn,
			Patient: "Imani Okafor", Category: ehr.CategoryClinical,
			Author: "dr-adams", CreatedAt: vc.Now(), Title: title, Body: body,
		}
	}
	visits := []ehr.Record{
		mk(0, "Initial visit", "Patient reports recurring migraines. Prescribed triptan therapy."),
		mk(1, "Follow-up", "Migraines reduced in frequency. Continue current regimen."),
	}
	for _, rec := range visits {
		if _, err := vault.PutCtx(ctx, "dr-adams", rec); err != nil {
			log.Fatal(err)
		}
		vc.Advance(30 * 24 * time.Hour)
	}
	// Assorted accesses over the months, legitimate and not.
	vault.GetCtx(ctx, "nurse-kim", visits[0].ID)
	vault.GetCtx(ctx, "dr-adams", visits[1].ID)
	vault.GetCtx(ctx, "clerk-roy", visits[0].ID) // denied: billing cannot read clinical
	if err := vault.BreakGlassCtx(ctx, "clerk-roy", "night-shift emergency contact lookup", 15*time.Minute); err != nil {
		log.Fatal(err)
	}
	vault.GetCtx(ctx, "clerk-roy", visits[0].ID) // emergency read, flagged

	// ---- right of access ----
	ids, err := vault.PatientRecordsCtx(ctx, "dr-adams", mrn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("right of access: patient %s has %d records: %v\n\n", mrn, len(ids), ids)

	// ---- accounting of disclosures (§164.528) ----
	fmt.Println("accounting of disclosures (compiled by officer-lau):")
	disclosures, err := vault.AccountingOfDisclosuresCtx(ctx, "officer-lau", mrn)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range disclosures {
		flag := ""
		if d.BreakGlass {
			flag = "  << EMERGENCY ACCESS"
		}
		fmt.Printf("  %s  %-11s %-8s %s [%s]%s\n",
			d.Timestamp.Format("2006-01-02 15:04"), d.Actor, d.Action, d.Record, d.Outcome, flag)
	}

	// ---- right to request correction ----
	corrected := visits[0]
	corrected.Body = "Patient reports recurring migraines. Prescribed triptan therapy. AMENDMENT: dosage recorded incorrectly at intake; corrected per patient request."
	ver, err := vault.CorrectCtx(ctx, "dr-adams", corrected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncorrection filed at patient's request: %s now v%d (v1 preserved)\n", corrected.ID, ver.Number)

	// ---- verifiable read ----
	// The patient's advocate wants more than the hospital's word: a proof
	// that the correction they received is what the vault committed to,
	// checkable with only the vault's public key.
	proof, err := vault.ProveVersionCtx(ctx, "dr-adams", corrected.ID, ver.Number)
	if err != nil {
		log.Fatal(err)
	}
	// …time passes, the advocate verifies offline…
	if err := core.VerifyVersionProof(vault.PublicKey(), proof, nil, nil); err != nil {
		log.Fatalf("proof rejected: %v", err)
	}
	fmt.Printf("\nverifiable read: version %d of %s is committed as leaf %d of the signed tree (size %d)\n",
		proof.Version, proof.RecordID, proof.LeafIndex, proof.Head.Size)
	fmt.Println("the proof verifies with the vault's public key alone — no trust in the operator required")

	// A forged proof — say, the hospital trying to pass v1 off as the
	// corrected version — fails.
	forged := proof
	forged.Version = 1
	if err := core.VerifyVersionProof(vault.PublicKey(), forged, nil, nil); err != nil {
		fmt.Println("a forged proof (claiming v1 is the correction) is rejected, as it must be")
	}
}
