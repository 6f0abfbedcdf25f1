package experiments

import (
	"context"
	"fmt"
	"time"

	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/migrate"
	"medvault/internal/vcrypto"
)

// E6 measures trustworthy migration (paper §1 "the resulting migration to
// new servers must be trustworthy, and verifiable"): vault-to-vault
// migration throughput, the cost of target-side verification, custody-chain
// continuity, and detection of in-transit tampering.
func E6(n int) (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  fmt.Sprintf("Verifiable migration of %d records between vaults", n),
		Header: []string{"scenario", "migrated", "failed", "elapsed", "rate", "target verify", "custody spans systems"},
	}

	// Honest migration.
	src, dst, ids, err := migrationPair(n)
	if err != nil {
		return Table{}, err
	}
	start := time.Now()
	rep, err := migrate.Run(src, dst, ids, migrate.Options{Actor: "bench-admin"})
	if err != nil {
		return Table{}, err
	}
	elapsed := time.Since(start)
	vStart := time.Now()
	if _, err := dst.VerifyAll(nil, nil); err != nil {
		return Table{}, fmt.Errorf("E6 target verify: %w", err)
	}
	verifyCost := time.Since(vStart)
	spans, err := custodySpans(dst, ids[0])
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{
		"honest channel",
		fmt.Sprintf("%d", len(rep.Migrated)),
		fmt.Sprintf("%d", len(rep.Failed)),
		fmtDur(elapsed),
		fmtRate(len(rep.Migrated), elapsed),
		fmtDur(verifyCost),
		fmt.Sprintf("%v", spans),
	})

	// Tampering channel: every bundle corrupted in transit.
	src2, dst2, ids2, err := migrationPair(n)
	if err != nil {
		return Table{}, err
	}
	evil := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[len(out)/2] ^= 0x01
		return out
	}
	rep2, err := migrate.Run(src2, dst2, ids2, migrate.Options{Actor: "bench-admin", Channel: evil})
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{
		"tampering channel",
		fmt.Sprintf("%d", len(rep2.Migrated)),
		fmt.Sprintf("%d (all detected)", len(rep2.Failed)),
		"-", "-", "-", "-",
	})
	return t, nil
}

func migrationPair(n int) (src, dst *core.Cluster, ids []string, err error) {
	src, srcStore, err := namedVault("hospital-a")
	if err != nil {
		return nil, nil, nil, err
	}
	dst, _, err = namedVault("hospital-b")
	if err != nil {
		return nil, nil, nil, err
	}
	recs := Corpus(n)
	if err := seed(srcStore, recs); err != nil {
		return nil, nil, nil, err
	}
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	return src, dst, ids, nil
}

// namedVault opens a vault with its own system name (custody chains must
// distinguish source from target) plus the bench adapter's principal.
func namedVault(name string) (*core.Cluster, *core.Adapter, error) {
	master, err := vcrypto.NewKey()
	if err != nil {
		return nil, nil, err
	}
	v, err := core.Open(core.Config{Name: name, Master: master, Clock: clock.NewVirtual(Epoch)})
	if err != nil {
		return nil, nil, err
	}
	adapter, err := core.NewAdapter(v)
	if err != nil {
		return nil, nil, err
	}
	return v, adapter, nil
}

func custodySpans(v *core.Cluster, id string) (bool, error) {
	chain, err := v.ProvenanceCtx(context.Background(), "bench-admin", id)
	if err != nil {
		return false, err
	}
	systems := map[string]bool{}
	for _, e := range chain {
		systems[e.System] = true
	}
	return len(systems) >= 2, nil
}
