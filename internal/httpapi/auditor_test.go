package httpapi

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/core"
	"medvault/internal/medclient"
	"medvault/internal/merkle"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// TestAuditorPinsHistoryBetweenProofs is the external auditor's use case,
// driven through medclient at 1 and 4 shards. The auditor takes a version
// proof, remembers its signed head, lets corrections land in the record's
// shard, and asks again with ?since=<remembered size>. The answer verifies
// against the remembered head with the vault's public key alone; the same
// head with one root byte flipped fails with ErrTampered; a since past the
// head answers 400. The request is one prove_version audit event and one
// completion event, and an answer without since has the parent's fields.
func TestAuditorPinsHistoryBetweenProofs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testAuditorPinsHistory(t, shards) })
	}
}

func testAuditorPinsHistory(t *testing.T, shards int) {
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	flight := obs.NewFlight(64)
	v, err := core.Open(core.Config{Name: "auditor-test", Master: master, Shards: shards, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	provisionPersonas(t, v)
	ts := httptest.NewServer(New(v))
	t.Cleanup(ts.Close)
	// The physician fetches proofs for the auditor, who holds only the
	// vault's public key.
	phys := medclient.New(ts.URL, medclient.WithActor("dr-house"))
	ctx := context.Background()
	pub := v.PublicKey()

	const id = "p1"
	if _, _, err := phys.CreateRecord(ctx, clientRecord(id)); err != nil {
		t.Fatal(err)
	}
	first, _, err := phys.Proof(ctx, id, 1)
	if err != nil {
		t.Fatal(err)
	}
	remembered := decodeProof(t, first)
	if err := core.VerifyVersionProof(pub, remembered, nil, nil); err != nil {
		t.Fatalf("first proof: %v", err)
	}
	head := remembered.Head

	for i := 0; i < 3; i++ {
		corr := clientRecord(id)
		corr.Body = fmt.Sprintf("amended %d", i)
		if _, _, err := phys.Correct(ctx, id, corr); err != nil {
			t.Fatal(err)
		}
	}

	audited := func() int {
		t.Helper()
		evs, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Record: id, Action: audit.ActionVerify})
		if err != nil {
			t.Fatal(err)
		}
		return len(evs)
	}
	events, completions := audited(), len(flight.Snapshot(obs.FlightFilter{Kind: "prove_version"}))
	later, _, err := phys.ProofSince(ctx, id, 1, head.Size)
	if err != nil {
		t.Fatal(err)
	}
	if got := audited() - events; got != 1 {
		t.Errorf("a since request left %d prove_version audit events, want 1", got)
	}
	if got := len(flight.Snapshot(obs.FlightFilter{Kind: "prove_version"})) - completions; got != 1 {
		t.Errorf("a since request left %d completion events, want 1", got)
	}
	if later.Since != head.Size || later.HeadSize != head.Size+3 || len(later.ConsistencyPath) == 0 {
		t.Fatalf("since %d: answer since %d, head %d, %d consistency hashes", head.Size, later.Since, later.HeadSize, len(later.ConsistencyPath))
	}
	p := decodeProof(t, later)
	if err := core.VerifyVersionProof(pub, p, nil, &head); err != nil {
		t.Errorf("the later head does not extend the remembered one: %v", err)
	}
	flipped := head
	flipped.Root[0] ^= 1
	if err := core.VerifyVersionProof(pub, p, nil, &flipped); !errors.Is(err, core.ErrTampered) {
		t.Errorf("a remembered head with a flipped root byte: %v, want ErrTampered", err)
	}

	if _, _, err := phys.ProofSince(ctx, id, 1, later.HeadSize+1, http.StatusBadRequest); err != nil {
		t.Errorf("since past the head: %v", err)
	}

	// Without since the answer has exactly the fields it always had.
	resp, err := phys.Raw(ctx, "GET", "/records/"+id+"/versions/1/proof", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fields map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"ciphertext_sha256", "head_root", "head_signature", "head_size", "head_time", "inclusion_path", "leaf_index", "record_id", "vault_public_key", "version"}
	if !slices.Equal(keys, want) {
		t.Errorf("proof fields without since = %v, want %v", keys, want)
	}
}

// decodeProof turns a proof answer into the form the verifier takes.
func decodeProof(t *testing.T, p medclient.Proof) core.VersionProof {
	t.Helper()
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil || (len(b) != merkle.HashSize && len(b) != 64) {
			t.Fatalf("proof field %q: %d bytes, %v", s, len(b), err)
		}
		return b
	}
	path := func(hs []string) merkle.Proof {
		var out merkle.Proof
		for _, h := range hs {
			out.Hashes = append(out.Hashes, merkle.Hash(unhex(h)))
		}
		return out
	}
	ts, err := time.Parse(time.RFC3339Nano, p.HeadTime)
	if err != nil {
		t.Fatal(err)
	}
	return core.VersionProof{
		RecordID:    p.RecordID,
		Version:     p.Version,
		CtHash:      [32]byte(unhex(p.CtHash)),
		LeafIndex:   p.LeafIndex,
		Inclusion:   path(p.InclusionPath),
		Head:        merkle.SignedTreeHead{Size: p.HeadSize, Root: merkle.Hash(unhex(p.HeadRoot)), Timestamp: ts, Signature: unhex(p.HeadSig)},
		Since:       p.Since,
		Consistency: path(p.ConsistencyPath),
	}
}
