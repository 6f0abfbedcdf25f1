// Command medvault is the operator CLI for a durable MedVault directory.
//
// Every subcommand acts as an authenticated principal (-actor); access
// decisions and denials land in the tamper-evident audit trail exactly as
// they do through the HTTP API.
//
// Usage:
//
//	medvault init  -dir DIR                         create a vault, print a fresh master key
//	medvault grant -dir DIR -principal P -roles R   grant roles (physician,nurse,billing-clerk,
//	                                                compliance-officer,archivist,admin)
//	medvault put     -dir DIR -key HEX -actor A -id I -mrn M -patient NAME -category C -title T -body B [-codes C1,C2]
//	medvault get     -dir DIR -key HEX -actor A -id I [-version N]
//	medvault history -dir DIR -key HEX -actor A -id I
//	medvault correct -dir DIR -key HEX -actor A -id I -body B [-title T]
//	medvault search  -dir DIR -key HEX -actor A -q KEYWORD
//	medvault shred   -dir DIR -key HEX -actor A -id I
//	medvault expired -dir DIR -key HEX
//	medvault audit   -dir DIR -key HEX -actor A [-record I] [-denied]
//	medvault custody -dir DIR -key HEX -actor A -id I
//	medvault verify  -dir DIR -key HEX
//	medvault disclosures -dir DIR -key HEX -actor A -mrn M
//	medvault prove   -dir DIR -key HEX -actor A -id I -version N
//	medvault hold    -dir DIR -key HEX -actor A -id I -reason R
//	medvault release -dir DIR -key HEX -actor A -id I
//	medvault holds   -dir DIR -key HEX
//	medvault breakglass -dir DIR -key HEX -actor A -reason R [-minutes M]
//	medvault sanitize -dir DIR -key HEX -actor A
//	medvault backup  -dir DIR -key HEX -actor A -backup-key HEX -out FILE
//	medvault restore -dir DIR -key HEX -actor A -backup-key HEX -in FILE
//	medvault flight  -dir DIR [-op SUB] [-trace ID] [-record HASH] [-limit N] [-bundles]
//
// flight is the offline black-box reader: it decodes the persisted flight
// recorder segments and postmortem bundles from a (possibly crashed) data
// directory without opening the vault and without the master key.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"medvault/internal/audit"
	"medvault/internal/backup"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/vaultcfg"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if err := dispatch(cmd, args); err != nil {
		fmt.Fprintln(os.Stderr, "medvault:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: medvault <init|grant|put|get|history|correct|search|shred|expired|audit|custody|verify|disclosures|prove|hold|release|holds|breakglass|sanitize|backup|restore|flight> [flags]
run 'medvault <command> -h' for command flags`)
}

// vaultFlags holds the flags every vault-touching command shares.
type vaultFlags struct {
	fs    *flag.FlagSet
	dir   *string
	key   *string
	actor *string
}

func newVaultFlags(name string) vaultFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return vaultFlags{
		fs:    fs,
		dir:   fs.String("dir", "", "vault directory (required)"),
		key:   fs.String("key", os.Getenv("MEDVAULT_KEY"), "master key, 64 hex chars (or $MEDVAULT_KEY)"),
		actor: fs.String("actor", "", "acting principal"),
	}
}

// run parses args, opens the vault, runs fn on it and closes it. Close
// writes the checkpoint, so its failure fails the command like fn's own.
func (vf vaultFlags) run(args []string, fn func(v *core.Cluster) error) error {
	vf.fs.Parse(args)
	if *vf.dir == "" {
		return fmt.Errorf("-dir is required")
	}
	master, err := vaultcfg.ParseMasterKey(*vf.key)
	if err != nil {
		return err
	}
	v, err := vaultcfg.Open(*vf.dir, "medvault", master)
	if err != nil {
		return err
	}
	return errors.Join(fn(v), v.Close())
}

func dispatch(cmd string, args []string) error {
	switch cmd {
	case "init":
		return cmdInit(args)
	case "grant":
		return cmdGrant(args)
	case "put":
		return cmdPut(args)
	case "get":
		return cmdGet(args)
	case "history":
		return cmdHistory(args)
	case "correct":
		return cmdCorrect(args)
	case "search":
		return cmdSearch(args)
	case "shred":
		return cmdShred(args)
	case "expired":
		return cmdExpired(args)
	case "audit":
		return cmdAudit(args)
	case "custody":
		return cmdCustody(args)
	case "verify":
		return cmdVerify(args)
	case "disclosures":
		return cmdDisclosures(args)
	case "sanitize":
		return cmdSanitize(args)
	case "breakglass":
		return cmdBreakGlass(args)
	case "hold":
		return cmdHold(args)
	case "release":
		return cmdRelease(args)
	case "holds":
		return cmdHolds(args)
	case "prove":
		return cmdProve(args)
	case "backup":
		return cmdBackup(args)
	case "restore":
		return cmdRestore(args)
	case "flight":
		return cmdFlight(args)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	dir := fs.String("dir", "", "vault directory to create")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	master, hexKey, err := vaultcfg.GenerateMasterKey()
	if err != nil {
		return err
	}
	v, err := vaultcfg.Open(*dir, "medvault", master)
	if err != nil {
		return err
	}
	if err := v.Close(); err != nil {
		return err
	}
	fmt.Printf("vault created at %s\n", *dir)
	fmt.Printf("master key (store in your KMS — unrecoverable if lost):\n%s\n", hexKey)
	return nil
}

func cmdGrant(args []string) error {
	fs := flag.NewFlagSet("grant", flag.ExitOnError)
	dir := fs.String("dir", "", "vault directory")
	principal := fs.String("principal", "", "principal ID")
	roles := fs.String("roles", "", "comma-separated roles")
	fs.Parse(args)
	if *dir == "" || *principal == "" || *roles == "" {
		return fmt.Errorf("-dir, -principal, and -roles are required")
	}
	if err := vaultcfg.Grant(*dir, *principal, strings.Split(*roles, ",")); err != nil {
		return err
	}
	fmt.Printf("granted %s: %s\n", *principal, *roles)
	return nil
}

func cmdPut(args []string) error {
	vf := newVaultFlags("put")
	var (
		id       = vf.fs.String("id", "", "record ID")
		mrn      = vf.fs.String("mrn", "", "medical record number")
		patient  = vf.fs.String("patient", "", "patient name")
		category = vf.fs.String("category", "clinical", "record category")
		title    = vf.fs.String("title", "", "note title")
		body     = vf.fs.String("body", "", "note body")
		codes    = vf.fs.String("codes", "", "comma-separated diagnosis codes")
	)
	return vf.run(args, func(v *core.Cluster) error {
		rec := ehr.Record{
			ID:        *id,
			MRN:       *mrn,
			Patient:   *patient,
			Category:  ehr.Category(*category),
			Author:    *vf.actor,
			CreatedAt: time.Now().UTC(),
			Title:     *title,
			Body:      *body,
		}
		if *codes != "" {
			rec.Codes = strings.Split(*codes, ",")
		}
		ver, err := v.PutCtx(context.Background(), *vf.actor, rec)
		if err != nil {
			return err
		}
		fmt.Printf("stored %s v%d (leaf %d)\n", rec.ID, ver.Number, ver.LeafIndex)
		return nil
	})
}

func printRecord(rec ehr.Record, ver core.Version) {
	fmt.Printf("id:       %s (v%d by %s at %s)\n", rec.ID, ver.Number, ver.Author, ver.Timestamp.Format(time.RFC3339))
	fmt.Printf("patient:  %s (MRN %s)\n", rec.Patient, rec.MRN)
	fmt.Printf("category: %s\n", rec.Category)
	fmt.Printf("title:    %s\n", rec.Title)
	fmt.Printf("codes:    %s\n", strings.Join(rec.Codes, ", "))
	fmt.Printf("body:     %s\n", rec.Body)
}

func cmdGet(args []string) error {
	vf := newVaultFlags("get")
	id := vf.fs.String("id", "", "record ID")
	version := vf.fs.Uint64("version", 0, "specific version (0 = latest)")
	return vf.run(args, func(v *core.Cluster) error {
		var (
			rec ehr.Record
			ver core.Version
			err error
		)
		if *version == 0 {
			rec, ver, err = v.GetCtx(context.Background(), *vf.actor, *id)
		} else {
			rec, ver, err = v.GetVersionCtx(context.Background(), *vf.actor, *id, *version)
		}
		if err != nil {
			return err
		}
		printRecord(rec, ver)
		return nil
	})
}

func cmdHistory(args []string) error {
	vf := newVaultFlags("history")
	id := vf.fs.String("id", "", "record ID")
	return vf.run(args, func(v *core.Cluster) error {
		hist, err := v.HistoryCtx(context.Background(), *vf.actor, *id)
		if err != nil {
			return err
		}
		for _, ver := range hist {
			fmt.Printf("v%d  %s  by %s  leaf=%d  cthash=%x…\n",
				ver.Number, ver.Timestamp.Format(time.RFC3339), ver.Author, ver.LeafIndex, ver.CtHash[:8])
		}
		return nil
	})
}

func cmdCorrect(args []string) error {
	vf := newVaultFlags("correct")
	id := vf.fs.String("id", "", "record ID")
	title := vf.fs.String("title", "", "replacement title (empty = keep)")
	body := vf.fs.String("body", "", "replacement body")
	return vf.run(args, func(v *core.Cluster) error {
		rec, _, err := v.GetCtx(context.Background(), *vf.actor, *id)
		if err != nil {
			return err
		}
		if *title != "" {
			rec.Title = *title
		}
		rec.Body = *body
		rec.Author = *vf.actor
		ver, err := v.CorrectCtx(context.Background(), *vf.actor, rec)
		if err != nil {
			return err
		}
		fmt.Printf("corrected %s: now v%d\n", *id, ver.Number)
		return nil
	})
}

func cmdSearch(args []string) error {
	vf := newVaultFlags("search")
	q := vf.fs.String("q", "", "keyword")
	return vf.run(args, func(v *core.Cluster) error {
		hits, err := v.SearchCtx(context.Background(), *vf.actor, *q)
		if err != nil {
			return err
		}
		for _, id := range hits {
			fmt.Println(id)
		}
		fmt.Fprintf(os.Stderr, "%d records\n", len(hits))
		return nil
	})
}

func cmdShred(args []string) error {
	vf := newVaultFlags("shred")
	id := vf.fs.String("id", "", "record ID")
	return vf.run(args, func(v *core.Cluster) error {
		if err := v.ShredCtx(context.Background(), *vf.actor, *id); err != nil {
			return err
		}
		fmt.Printf("securely deleted %s (data key destroyed)\n", *id)
		return nil
	})
}

func cmdExpired(args []string) error {
	vf := newVaultFlags("expired")
	return vf.run(args, func(v *core.Cluster) error {
		for _, id := range v.ExpiredRecords() {
			fmt.Println(id)
		}
		return nil
	})
}

func cmdAudit(args []string) error {
	vf := newVaultFlags("audit")
	record := vf.fs.String("record", "", "filter by record ID")
	denied := vf.fs.Bool("denied", false, "denied attempts only")
	return vf.run(args, func(v *core.Cluster) error {
		events, err := v.AuditEventsCtx(context.Background(), *vf.actor, audit.Query{Record: *record, DeniedOnly: *denied})
		if err != nil {
			return err
		}
		for _, e := range events {
			fmt.Println(e)
		}
		fmt.Fprintf(os.Stderr, "%d events\n", len(events))
		return nil
	})
}

func cmdCustody(args []string) error {
	vf := newVaultFlags("custody")
	id := vf.fs.String("id", "", "record ID")
	return vf.run(args, func(v *core.Cluster) error {
		chain, err := v.ProvenanceCtx(context.Background(), *vf.actor, *id)
		if err != nil {
			return err
		}
		for _, e := range chain {
			fmt.Printf("#%d %s %s by %s on %s", e.Index, e.Timestamp.Format(time.RFC3339), e.Type, e.Actor, e.System)
			if e.Peer != "" {
				fmt.Printf(" (peer %s)", e.Peer)
			}
			fmt.Println()
		}
		return nil
	})
}

func cmdVerify(args []string) error {
	vf := newVaultFlags("verify")
	return vf.run(args, func(v *core.Cluster) error {
		rep, err := v.VerifyAll(nil, nil)
		if err != nil {
			return fmt.Errorf("INTEGRITY FAILURE: %w", err)
		}
		fmt.Printf("OK: %d records, %d versions, %d audit events, %d custody chains verified\n",
			rep.RecordsChecked, rep.VersionsChecked, rep.AuditEvents, rep.ProvenanceChains)
		for i, head := range v.Heads() {
			if v.NumShards() > 1 {
				fmt.Printf("shard %d signed tree head: size=%d root=%x…\n", i, head.Size, head.Root[:8])
			} else {
				fmt.Printf("signed tree head: size=%d root=%x…\n", head.Size, head.Root[:8])
			}
		}
		return nil
	})
}

func cmdDisclosures(args []string) error {
	vf := newVaultFlags("disclosures")
	mrn := vf.fs.String("mrn", "", "patient MRN")
	return vf.run(args, func(v *core.Cluster) error {
		ds, err := v.AccountingOfDisclosuresCtx(context.Background(), *vf.actor, *mrn)
		if err != nil {
			return err
		}
		for _, d := range ds {
			flag := ""
			if d.BreakGlass {
				flag = " [BREAK-GLASS]"
			}
			fmt.Printf("%s  %-12s %-10s %s [%s]%s\n",
				d.Timestamp.Format(time.RFC3339), d.Actor, d.Action, d.Record, d.Outcome, flag)
		}
		fmt.Fprintf(os.Stderr, "%d disclosures for MRN %s\n", len(ds), *mrn)
		return nil
	})
}

func cmdBreakGlass(args []string) error {
	vf := newVaultFlags("breakglass")
	reason := vf.fs.String("reason", "", "emergency justification (required, audited)")
	minutes := vf.fs.Int("minutes", 60, "grant duration in minutes (1 to 1440)")
	return vf.run(args, func(v *core.Cluster) error {
		if err := v.BreakGlassCtx(context.Background(), *vf.actor, *reason, time.Duration(*minutes)*time.Minute); err != nil {
			return err
		}
		fmt.Printf("break-glass granted to %s for %d minutes (audited): %s\n", *vf.actor, *minutes, *reason)
		fmt.Println("NOTE: grants are in-memory; they apply to operations in long-running processes (medvaultd), not across CLI invocations")
		return nil
	})
}

func cmdHold(args []string) error {
	vf := newVaultFlags("hold")
	id := vf.fs.String("id", "", "record ID")
	reason := vf.fs.String("reason", "", "hold justification (required)")
	return vf.run(args, func(v *core.Cluster) error {
		if *reason == "" {
			return fmt.Errorf("-reason is required for a legal hold")
		}
		if err := v.PlaceHoldCtx(context.Background(), *vf.actor, *id, *reason); err != nil {
			return err
		}
		fmt.Printf("legal hold placed on %s (durable, audited): %s\n", *id, *reason)
		return nil
	})
}

func cmdRelease(args []string) error {
	vf := newVaultFlags("release")
	id := vf.fs.String("id", "", "record ID")
	return vf.run(args, func(v *core.Cluster) error {
		if err := v.ReleaseHoldCtx(context.Background(), *vf.actor, *id); err != nil {
			return err
		}
		fmt.Printf("legal hold released on %s\n", *id)
		return nil
	})
}

func cmdHolds(args []string) error {
	vf := newVaultFlags("holds")
	return vf.run(args, func(v *core.Cluster) error {
		for _, h := range v.Retention().Holds() {
			fmt.Printf("%s  placed %s  reason: %s\n", h.Record, h.Placed.Format(time.RFC3339), h.Reason)
		}
		return nil
	})
}

func cmdSanitize(args []string) error {
	vf := newVaultFlags("sanitize")
	return vf.run(args, func(v *core.Cluster) error {
		dropped, reclaimed, err := v.SanitizeMedia(*vf.actor)
		if err != nil {
			return err
		}
		fmt.Printf("media sanitized: %d shredded version(s) removed, %d bytes reclaimed\n", dropped, reclaimed)
		return nil
	})
}

func cmdProve(args []string) error {
	vf := newVaultFlags("prove")
	id := vf.fs.String("id", "", "record ID")
	version := vf.fs.Uint64("version", 1, "version to prove")
	return vf.run(args, func(v *core.Cluster) error {
		proof, err := v.ProveVersionCtx(context.Background(), *vf.actor, *id, *version)
		if err != nil {
			return err
		}
		// Self-check before printing, then emit the verifier's inputs.
		if err := core.VerifyVersionProof(v.PublicKey(), proof, nil, nil); err != nil {
			return fmt.Errorf("generated proof failed self-verification: %w", err)
		}
		fmt.Printf("record:     %s v%d\n", proof.RecordID, proof.Version)
		fmt.Printf("cthash:     %x\n", proof.CtHash)
		fmt.Printf("leaf:       %d of %d\n", proof.LeafIndex, proof.Head.Size)
		fmt.Printf("head root:  %x\n", proof.Head.Root)
		fmt.Printf("head sig:   %x\n", proof.Head.Signature)
		fmt.Printf("vault key:  %s\n", v.PublicKey())
		fmt.Printf("path (%d):\n", len(proof.Inclusion.Hashes))
		for i, h := range proof.Inclusion.Hashes {
			fmt.Printf("  %2d %x\n", i, h)
		}
		fmt.Println("proof verifies against the vault public key OK")
		return nil
	})
}

func cmdBackup(args []string) error {
	vf := newVaultFlags("backup")
	bkey := vf.fs.String("backup-key", "", "backup key, 64 hex chars")
	out := vf.fs.String("out", "", "output archive file")
	return vf.run(args, func(v *core.Cluster) error {
		key, err := vaultcfg.ParseMasterKey(*bkey)
		if err != nil {
			return fmt.Errorf("backup key: %w", err)
		}
		arch, err := backup.Create(v, *vf.actor, key, *out)
		if err != nil {
			return err
		}
		if err := backup.SaveArchive(faultfs.OS{}, *out, arch); err != nil {
			return err
		}
		fmt.Printf("backed up %d records to %s (%d bytes, sealed)\n", len(arch.Manifest.Entries), *out, len(backup.Encode(arch)))
		return nil
	})
}

func cmdRestore(args []string) error {
	vf := newVaultFlags("restore")
	bkey := vf.fs.String("backup-key", "", "backup key, 64 hex chars")
	in := vf.fs.String("in", "", "archive file")
	return vf.run(args, func(v *core.Cluster) error {
		key, err := vaultcfg.ParseMasterKey(*bkey)
		if err != nil {
			return fmt.Errorf("backup key: %w", err)
		}
		arch, err := backup.LoadArchive(faultfs.OS{}, *in)
		if err != nil {
			return err
		}
		n, err := backup.Restore(arch, key, v, *vf.actor)
		if err != nil {
			return err
		}
		fmt.Printf("restored %d records from %s (archive verified)\n", n, *in)
		return nil
	})
}
