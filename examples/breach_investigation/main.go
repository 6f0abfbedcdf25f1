// Breach investigation: a malicious insider with direct access to the
// storage layer rewrites a record's bytes beneath the query processor — the
// exact threat the paper says encryption-only and relational systems cannot
// even see. The vault's commitment log exposes the tampering, and the audit
// and custody trails support the forensic walk that follows.
//
//	go run ./examples/breach_investigation
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/merkle"
	"medvault/internal/vcrypto"
)

func main() {
	ctx := context.Background()
	master, err := vcrypto.NewKey()
	if err != nil {
		log.Fatal(err)
	}
	vc := clock.NewVirtual(time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC))
	vault, err := core.Open(core.Config{Name: "county-med", Master: master, Clock: vc})
	if err != nil {
		log.Fatal(err)
	}
	defer vault.Close()
	az := vault.Authz()
	for _, role := range authz.StandardRoles() {
		az.DefineRole(role)
	}
	for id, role := range map[string]string{
		"dr-ibarra": "physician", "officer-cho": "compliance-officer",
	} {
		if err := az.AddPrincipal(id, role); err != nil {
			log.Fatal(err)
		}
	}
	// The attack surface needs the adapter's disk-level hooks.
	adapter, err := core.NewAdapter(vault)
	if err != nil {
		log.Fatal(err)
	}

	// Normal operation: records accumulate, checkpoints are taken.
	gen := ehr.NewGenerator(11, vc.Now())
	var ids []string
	for len(ids) < 8 {
		rec := gen.Next()
		if rec.Category != ehr.CategoryClinical {
			continue
		}
		if _, err := vault.PutCtx(ctx, "dr-ibarra", rec); err != nil {
			log.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	// The compliance office stores the signed tree head and an audit
	// checkpoint OFF-SYSTEM — this is the anchor the insider cannot reach.
	// (Both are per-shard artifacts; this vault has one shard.)
	rememberedHead := vault.Heads()[0]
	rememberedCP := vault.Shard(0).AuditCheckpoint()
	fmt.Printf("baseline: %d records; off-system anchors stored (tree size %d, audit seq %d)\n",
		vault.Len(), rememberedHead.Size, rememberedCP.Seq)

	// ---- the attack ----
	// A storage administrator, bypassing the API entirely, rewrites the
	// ciphertext of one record on disk (format-aware: the framing CRC is
	// recomputed, so the block layer sees nothing wrong).
	victim := ids[3]
	vc.Advance(48 * time.Hour)
	err = adapter.TamperRecord(victim, func(b []byte) []byte {
		b[len(b)/3] ^= 0x5A
		return b
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninsider rewrote the stored bytes of %s (valid CRC, no API call, no audit event)\n", victim)

	// ---- detection ----
	report, err := vault.VerifyAll(
		[]merkle.SignedTreeHead{rememberedHead},
		[]audit.Checkpoint{rememberedCP},
	)
	if err != nil {
		fmt.Printf("scheduled integrity sweep: TAMPERING DETECTED\n  %v\n", err)
	} else {
		log.Fatalf("attack went undetected (report %+v) — this must not happen", report)
	}

	// A read of the victim record also fails loudly rather than serving
	// falsified EPHI.
	if _, _, err := vault.GetCtx(ctx, "dr-ibarra", victim); err != nil {
		fmt.Printf("read of %s refused: %v\n", victim, err)
	}

	// ---- forensics ----
	// Who touched this record through legitimate channels, and when?
	fmt.Println("\nforensic audit walk (officer-cho):")
	events, err := vault.AuditEventsCtx(ctx, "officer-cho", audit.Query{Record: victim})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range events {
		fmt.Printf("  %s\n", e)
	}
	fmt.Println("no legitimate write after creation -> the modification bypassed the API: storage-layer compromise confirmed.")

	// The custody chain shows the record's full legitimate lifecycle — or,
	// here, the edit too: until a checkpoint writes it to the custody log, a
	// version's custody event lives in the same metadata-log entry as its
	// ciphertext, so the rewritten bytes no longer hash into the chain.
	chain, err := vault.ProvenanceCtx(ctx, "officer-cho", victim)
	if err != nil {
		fmt.Printf("custody chain refused too: %v\n", err)
	} else {
		fmt.Println("custody chain:")
	}
	for _, e := range chain {
		fmt.Printf("  #%d %s by %s on %s\n", e.Index, e.Type, e.Actor, e.System)
	}

	// Recovery in practice: restore the record from the latest verified
	// backup (see examples/secure_deletion and the backup package) and
	// rotate storage-layer credentials. The unaffected records still verify:
	fmt.Println("\nuntouched records still verify individually:")
	for _, id := range ids[:3] {
		if _, _, err := vault.GetCtx(ctx, "dr-ibarra", id); err != nil {
			log.Fatalf("collateral damage on %s: %v", id, err)
		}
	}
	fmt.Println("  ok — blast radius limited to the attacked record")
}
