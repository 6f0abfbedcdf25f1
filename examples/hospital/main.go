// Hospital workflow: a multi-actor clinical day demonstrating role-based
// access with minimum-necessary scoping, denied-access auditing, corrections,
// and break-glass emergency access with after-the-fact review.
//
//	go run ./examples/hospital
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"medvault/internal/audit"
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
	vc := clock.NewVirtual(time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC))
	vault, err := core.Open(core.Config{Name: "st-elsewhere", Master: master, Clock: vc})
	if err != nil {
		log.Fatal(err)
	}
	defer vault.Close()

	// Staff: a physician, a nurse, a billing clerk, and a compliance officer.
	az := vault.Authz()
	for _, role := range authz.StandardRoles() {
		az.DefineRole(role)
	}
	staff := map[string]string{
		"dr-grey":     "physician",
		"nurse-park":  "nurse",
		"clerk-odell": "billing-clerk",
		"officer-ng":  "compliance-officer",
	}
	for id, role := range staff {
		if err := az.AddPrincipal(id, role); err != nil {
			log.Fatal(err)
		}
	}

	// Morning rounds: the physician writes clinical notes.
	patients := []ehr.Record{
		{
			ID: "mrn-1001/enc-0", Patient: "Miles Dyson", MRN: "mrn-1001",
			Category: ehr.CategoryClinical, Author: "dr-grey", CreatedAt: vc.Now(),
			Title: "Admission note",
			Body:  "Admitted with chest pain. ECG ordered. History of hypertension.",
			Codes: []string{"R07.9", "I10"},
		},
		{
			ID: "mrn-1002/enc-0", Patient: "Sarah Connor", MRN: "mrn-1002",
			Category: ehr.CategoryClinical, Author: "dr-grey", CreatedAt: vc.Now(),
			Title: "Follow-up",
			Body:  "Asthma well controlled on current inhaler regimen.",
			Codes: []string{"J45"},
		},
	}
	for _, rec := range patients {
		if _, err := vault.PutCtx(ctx, "dr-grey", rec); err != nil {
			log.Fatal(err)
		}
	}
	// Billing files its own record — a different category.
	bill := ehr.Record{
		ID: "mrn-1001/bill-0", Patient: "Miles Dyson", MRN: "mrn-1001",
		Category: ehr.CategoryBilling, Author: "clerk-odell", CreatedAt: vc.Now(),
		Title: "Claim 2026-07-4471", Body: "Admission billing, pending insurer response.",
	}
	if _, err := vault.PutCtx(ctx, "clerk-odell", bill); err != nil {
		log.Fatal(err)
	}
	fmt.Println("• records written: 2 clinical (dr-grey), 1 billing (clerk-odell)")

	// Minimum necessary in action: the clerk cannot open clinical charts,
	// and the nurse cannot see billing. Every denial is audited.
	if _, _, err := vault.GetCtx(ctx, "clerk-odell", "mrn-1001/enc-0"); errors.Is(err, core.ErrDenied) {
		fmt.Println("• clerk denied access to clinical chart (audited)")
	}
	if _, _, err := vault.GetCtx(ctx, "nurse-park", "mrn-1001/bill-0"); errors.Is(err, core.ErrDenied) {
		fmt.Println("• nurse denied access to billing record (audited)")
	}

	// The nurse reads the chart she is allowed to see.
	if _, _, err := vault.GetCtx(ctx, "nurse-park", "mrn-1001/enc-0"); err != nil {
		log.Fatal(err)
	}

	// The patient requests a correction: the ECG note was transcribed wrong.
	corrected := patients[0]
	corrected.Body = "Admitted with chest pain. ECG shows normal sinus rhythm. History of hypertension. AMENDMENT: prior note omitted the ECG result."
	ver, err := vault.CorrectCtx(ctx, "dr-grey", corrected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("• correction filed: %s now at v%d, v1 preserved\n", corrected.ID, ver.Number)

	// 02:00: Dyson crashes. The on-call clerk is the only staffer at the
	// desk and needs his chart NOW. Break-glass: time-boxed, reasoned,
	// loudly audited.
	vc.Advance(18 * time.Hour)
	if err := vault.BreakGlassCtx(ctx, "clerk-odell", "code blue bed 12, on-call access", 30*time.Minute); err != nil {
		log.Fatal(err)
	}
	if _, _, err := vault.GetCtx(ctx, "clerk-odell", "mrn-1001/enc-0"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("• break-glass: clerk read the chart under an emergency grant")
	vc.Advance(time.Hour)
	if _, _, err := vault.GetCtx(ctx, "clerk-odell", "mrn-1001/enc-0"); errors.Is(err, core.ErrDenied) {
		fmt.Println("• grant expired: access denied again")
	}

	// Next morning: compliance review. Who was denied? Who broke glass?
	fmt.Println("\ncompliance review (officer-ng):")
	denied, err := vault.AuditEventsCtx(ctx, "officer-ng", audit.Query{DeniedOnly: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d denied attempts:\n", len(denied))
	for _, e := range denied {
		fmt.Printf("    %s\n", e)
	}
	emergencies, err := vault.AuditEventsCtx(ctx, "officer-ng", audit.Query{Action: audit.ActionBreakGlass})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d break-glass events:\n", len(emergencies))
	for _, e := range emergencies {
		fmt.Printf("    %s\n", e)
	}

	// And the trail itself is tamper-evident.
	report, err := vault.VerifyAll(nil, nil)
	if err != nil {
		log.Fatalf("INTEGRITY FAILURE: %v", err)
	}
	fmt.Printf("\nintegrity sweep clean: %d records, %d versions, %d audit events\n",
		report.RecordsChecked, report.VersionsChecked, report.AuditEvents)
}
