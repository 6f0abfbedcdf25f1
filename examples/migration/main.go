// Migration: a hospital retires its storage system after years of service
// and must move every record — with full version history and a verifiable
// chain of custody — to the replacement system, as the paper's long-retention
// requirement demands ("the resulting migration to new servers must be
// trustworthy, and verifiable"). A tampering transport is also demonstrated:
// nothing corrupted crosses over.
//
//	go run ./examples/migration
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
	"medvault/internal/migrate"
	"medvault/internal/vcrypto"
)

func newVault(name string, vc *clock.Virtual) (*core.Cluster, error) {
	master, err := vcrypto.NewKey()
	if err != nil {
		return nil, err
	}
	v, err := core.Open(core.Config{Name: name, Master: master, Clock: vc})
	if err != nil {
		return nil, err
	}
	az := v.Authz()
	for _, role := range authz.StandardRoles() {
		az.DefineRole(role)
	}
	for id, role := range map[string]string{
		"dr-okafor": "physician", "arch-ruiz": "archivist", "officer-ng": "compliance-officer",
	} {
		if err := az.AddPrincipal(id, role); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func main() {
	ctx := context.Background()
	vc := clock.NewVirtual(time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC))
	oldSystem, err := newVault("mercy-general-legacy", vc)
	if err != nil {
		log.Fatal(err)
	}
	defer oldSystem.Close()

	// Years of records accumulate on the legacy system.
	gen := ehr.NewGenerator(7, vc.Now())
	var ids []string
	for len(ids) < 12 {
		rec := gen.Next()
		if rec.Category == ehr.CategoryBilling || rec.Category == ehr.CategoryOccupational {
			continue
		}
		if _, err := oldSystem.PutCtx(ctx, "dr-okafor", rec); err != nil {
			log.Fatal(err)
		}
		if len(ids)%4 == 0 { // some records were corrected over the years
			if _, err := oldSystem.CorrectCtx(ctx, "dr-okafor", gen.Correction(rec)); err != nil {
				log.Fatal(err)
			}
		}
		ids = append(ids, rec.ID)
	}
	fmt.Printf("legacy system holds %d records\n", oldSystem.Len())

	// Six years later the hardware is end-of-life.
	vc.Advance(6 * 365 * 24 * time.Hour)
	newSystem, err := newVault("mercy-general-2026", vc)
	if err != nil {
		log.Fatal(err)
	}
	defer newSystem.Close()

	// Migrate: the source signs a manifest over every record's full
	// history; the target verifies before ingesting a single byte.
	rep, err := migrate.Run(oldSystem, newSystem, ids, migrate.Options{Actor: "arch-ruiz"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrated %d records (%d bytes transferred), %d failures\n",
		len(rep.Migrated), rep.BytesSent, len(rep.Failed))

	// The new system passes a full integrity sweep, version history intact.
	if _, err := newSystem.VerifyAll(nil, nil); err != nil {
		log.Fatalf("target integrity failure: %v", err)
	}
	hist, err := newSystem.HistoryCtx(ctx, "dr-okafor", ids[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("record %s arrived with %d versions\n", ids[0], len(hist))

	// The custody chain now spans both systems — HIPAA's record of
	// movements, cryptographically signed by each custodian.
	chain, err := newSystem.ProvenanceCtx(ctx, "officer-ng", ids[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("chain of custody:")
	for _, e := range chain {
		peer := ""
		if e.Peer != "" {
			peer = " -> " + e.Peer
		}
		fmt.Printf("  #%d %-12s by %-10s on %s%s\n", e.Index, e.Type, e.Actor, e.System, peer)
	}

	// A hostile transport cannot sneak altered records through: flip one
	// byte per bundle and every record is rejected at the target.
	evilTarget, err := newVault("attacker-site", vc)
	if err != nil {
		log.Fatal(err)
	}
	defer evilTarget.Close()
	corrupting := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[len(out)/2] ^= 0x01
		return out
	}
	rep2, err := migrate.Run(oldSystem, evilTarget, ids[:4], migrate.Options{Actor: "arch-ruiz", Channel: corrupting})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntampering transport: %d migrated, %d rejected (all tampering detected)\n",
		len(rep2.Migrated), len(rep2.Failed))
}
