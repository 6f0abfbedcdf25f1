package core

// Exported handles on the crash-recovery torture harness. The failover
// torture in internal/repl reuses the exact scripted workload, acked-state
// oracle, and recovery battery that torture.go runs against a single disk —
// but points them at a promoted replica instead of a recovered crash image.
// Exporting thin wrappers (rather than duplicating the script) keeps the two
// harnesses answering the same question: "is everything the vault
// acknowledged still there?"

import (
	"medvault/internal/clock"
	"medvault/internal/faultfs"
)

// TortureOracle records acknowledged operations during a torture workload so
// recovery — or a promoted follower — can be audited against them.
type TortureOracle struct{ o *oracle }

// NewTortureOracle returns an empty oracle.
func NewTortureOracle() *TortureOracle { return &TortureOracle{o: newOracle()} }

// OpenTortureVault opens (or reopens) the standard torture vault over fsys:
// fixed master seed, virtual clock at the torture epoch, standard staff.
func OpenTortureVault(fsys faultfs.FS, shards int) (*Cluster, *clock.Virtual, error) {
	return openTorture(fsys, shards)
}

// RunTortureWorkload executes the scripted torture workload against v,
// recording every acknowledgment in o. It returns the first error (the
// injected fault surfacing); acks recorded before it are owed durability.
func RunTortureWorkload(v *Cluster, vc *clock.Virtual, o *TortureOracle) error {
	return runWorkload(v, vc, o.o)
}

// RecoverAndCheck runs the whole post-crash battery against a disk image —
// a local crash image or a promoted follower's medium alike: the persisted
// flight tail decodes, is sentinel-free and claims nothing recovery does not
// rebuild; two recovery passes each satisfy the oracle (every acked version
// readable with its exact body, acked shreds honored, acked holds in force,
// VerifyAll clean, one custody event per acked put, correction and shred);
// and no sentinel plaintext is on the medium.
func (t *TortureOracle) RecoverAndCheck(img *faultfs.Mem, shards int) error {
	return recoverAndCheck(img, t.o, shards)
}
