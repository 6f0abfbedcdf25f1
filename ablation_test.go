package medvault_test

import (
	"fmt"
	"testing"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/ehr"
	"medvault/internal/experiments"
	"medvault/internal/faultfs"
	"medvault/internal/index"
	"medvault/internal/merkle"
	"medvault/internal/provenance"
	"medvault/internal/vcrypto"
	"medvault/internal/wal"
)

// Ablation benchmarks decompose the hybrid store's per-write cost into its
// component mechanisms, so the E2 overhead (medvault put ≈ 10x relational
// put) can be attributed: which security property costs what. Run:
//
//	go test -bench=BenchmarkAblation -benchmem
//
// Each benchmark isolates exactly one stage of the write path on the same
// synthetic record stream.

func ablationRecords(b *testing.B) [][]byte {
	b.Helper()
	gen := ehr.NewGenerator(77, experiments.Epoch)
	out := make([][]byte, b.N)
	for i := range out {
		out[i] = ehr.Encode(gen.Next())
	}
	return out
}

// BenchmarkAblationCodec: canonical encoding alone — the record codec each
// way, and the custody event. The audit-event and WAL-entry encoders are
// unexported; their cases are BenchmarkAblationCodecAuditEvent (internal/audit)
// and BenchmarkAblationCodecWALVEntry (internal/core), so
// `go test -bench AblationCodec -benchmem . ./internal/audit ./internal/core`
// prints the whole set.
func BenchmarkAblationCodec(b *testing.B) {
	gen := ehr.NewGenerator(77, experiments.Epoch)
	recs := gen.Corpus(256)
	encoded := make([][]byte, len(recs))
	for i, r := range recs {
		encoded[i] = ehr.Encode(r)
	}
	b.Run("record-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ehr.Encode(recs[i%len(recs)])
		}
	})
	b.Run("record-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ehr.Decode(encoded[i%len(encoded)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("custody-event", func(b *testing.B) {
		ev := provenance.Event{Record: recs[0].ID, Type: provenance.EventCreated, Actor: "dr-a", System: "vault-a",
			SignerKey: make([]byte, 32), Signature: make([]byte, 64)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			provenance.EncodeEvent(ev)
		}
	})
}

// BenchmarkAblationSeal: AES-256-GCM envelope encryption of the encoded
// record (the confidentiality requirement's share).
func BenchmarkAblationSeal(b *testing.B) {
	recs := ablationRecords(b)
	key, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vcrypto.Seal(key, recs[i], []byte("aad")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDEKCreate: per-record key generation + wrapping (the
// crypto-shredding requirement's share; paid once per record, not version).
func BenchmarkAblationDEKCreate(b *testing.B) {
	master, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	ks := vcrypto.NewKeyStore(master)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ks.Create(fmt.Sprintf("rec-%d-%d", b.N, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBlockAppend: raw segment-store append (the storage
// engine's floor).
func BenchmarkAblationBlockAppend(b *testing.B) {
	recs := ablationRecords(b)
	store := blockstore.NewMemory(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := store.Append(recs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMerkleAppend: commitment-log append (the insider-
// integrity requirement's incremental share).
func BenchmarkAblationMerkleAppend(b *testing.B) {
	recs := ablationRecords(b)
	tree := merkle.NewTree()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree.Append(recs[i])
	}
}

// BenchmarkAblationIndexAdd: SSE index ingestion (the trustworthy-search
// requirement's share — typically the dominant term: one HMAC per keyword).
func BenchmarkAblationIndexAdd(b *testing.B) {
	gen := ehr.NewGenerator(77, experiments.Epoch)
	recs := gen.Corpus(b.N)
	master, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	idx := index.NewSSE(master)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx.Add(recs[i].ID, recs[i].SearchText())
	}
}

// BenchmarkAblationIndexAddPlaintext: the same ingestion into the plaintext
// index — the privacy delta is the difference between these two.
func BenchmarkAblationIndexAddPlaintext(b *testing.B) {
	gen := ehr.NewGenerator(77, experiments.Epoch)
	recs := gen.Corpus(b.N)
	idx := index.NewPlaintext()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx.Add(recs[i].ID, recs[i].SearchText())
	}
}

// BenchmarkAblationAuditAppend: one audit event per operation (the logging
// requirement's share).
func BenchmarkAblationAuditAppend(b *testing.B) {
	signer, err := vcrypto.NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	key, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	log, err := audit.Open(audit.Config{Store: blockstore.NewMemory(0), MACKey: key, Signer: signer})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(audit.Event{Actor: "a", Action: audit.ActionCreate, Outcome: audit.OutcomeAllowed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWALAppend: durable intent logging with fsync per write —
// the price of crash consistency on real storage (a vault on an in-memory
// disk pays the WAL but not the real fsync).
func BenchmarkAblationWALAppend(b *testing.B) {
	recs := ablationRecords(b)
	log, err := wal.OpenFS(faultfs.OS{}, b.TempDir()+"/ablate.wal", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(recs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSignHead: signing a tree head (paid per checkpoint, not
// per write — shown for completeness).
func BenchmarkAblationSignHead(b *testing.B) {
	signer, err := vcrypto.NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	log := merkle.NewLog(signer, nil)
	log.Append([]byte("x"))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		log.Head()
	}
}
