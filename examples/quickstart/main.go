// Quickstart: create a vault, store a record, read it back, correct it, and
// verify the whole store end-to-end.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"medvault/internal/authz"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/vcrypto"
)

func main() {
	ctx := context.Background()
	// Every vault needs a root secret. In production this comes from a KMS;
	// here we generate one for the demo's lifetime.
	master, err := vcrypto.NewKey()
	if err != nil {
		log.Fatal(err)
	}

	// A vault on a fresh in-memory disk (pass Config.Dir to keep it on disk).
	vault, err := core.Open(core.Config{Name: "quickstart-clinic", Master: master})
	if err != nil {
		log.Fatal(err)
	}
	defer vault.Close()

	// Access control: define roles, register staff.
	az := vault.Authz()
	for _, role := range authz.StandardRoles() {
		az.DefineRole(role)
	}
	if err := az.AddPrincipal("dr-chen", "physician"); err != nil {
		log.Fatal(err)
	}

	// Store a record. The vault encrypts it under its own data key, commits
	// it to the Merkle log, indexes it, audits the write, and starts its
	// retention clock.
	rec := ehr.Record{
		ID:        "mrn-000001/enc-0",
		Patient:   "Ada Lovelace",
		MRN:       "mrn-000001",
		Category:  ehr.CategoryClinical,
		Author:    "dr-chen",
		CreatedAt: time.Now().UTC(),
		Title:     "Initial consultation",
		Body:      "Patient presents with elevated blood pressure. Suspected hypertension.",
		Codes:     []string{"I10"},
	}
	ver, err := vault.PutCtx(ctx, "dr-chen", rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %s as version %d (commitment leaf %d)\n", rec.ID, ver.Number, ver.LeafIndex)

	// Read it back: hash-verified against the commitment before decryption.
	got, _, err := vault.GetCtx(ctx, "dr-chen", rec.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %q\n", got.Title)

	// Patients may request corrections (HIPAA right to amend). Corrections
	// never overwrite: they append a new version.
	rec.Body = "Confirmed hypertension stage 1. AMENDMENT: prior note said 'suspected'."
	ver2, err := vault.CorrectCtx(ctx, "dr-chen", rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corrected to version %d; version 1 remains readable:\n", ver2.Number)
	v1, _, err := vault.GetVersionCtx(ctx, "dr-chen", rec.ID, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  v1: %q\n", v1.Body)

	// Keyword search through the encrypted index.
	hits, err := vault.SearchCtx(ctx, "dr-chen", "hypertension")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search(hypertension) -> %v\n", hits)

	// Full integrity sweep: ciphertext hashes, Merkle inclusion proofs,
	// audit chain, custody chains.
	report, err := vault.VerifyAll(nil, nil)
	if err != nil {
		log.Fatalf("INTEGRITY FAILURE: %v", err)
	}
	fmt.Printf("verified: %d record(s), %d version(s), %d audit event(s)\n",
		report.RecordsChecked, report.VersionsChecked, report.AuditEvents)

	// Remember the signed tree head off-system (one per shard; this vault has
	// one); future verifications against it detect history rewriting.
	head := vault.Heads()[0]
	fmt.Printf("signed tree head: size=%d root=%x…\n", head.Size, head.Root[:8])
}
