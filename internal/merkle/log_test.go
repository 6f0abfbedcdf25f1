package merkle

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"medvault/internal/vcrypto"
)

func testSigner(t *testing.T) *vcrypto.Signer {
	t.Helper()
	s, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLogHeadSignatures(t *testing.T) {
	s := testSigner(t)
	log := NewLog(s, nil)
	log.Append([]byte("v1"))
	head := log.Head()
	if head.Size != 1 {
		t.Fatalf("head size = %d, want 1", head.Size)
	}
	if err := head.Verify(s.Public()); err != nil {
		t.Errorf("valid STH rejected: %v", err)
	}
	// Another signer's key must not verify it.
	other := testSigner(t)
	if err := head.Verify(other.Public()); !errors.Is(err, vcrypto.ErrBadSignature) {
		t.Errorf("STH verified under wrong key: %v", err)
	}
	// Mutated fields must not verify.
	for _, mutate := range []func(h SignedTreeHead) SignedTreeHead{
		func(h SignedTreeHead) SignedTreeHead { h.Size++; return h },
		func(h SignedTreeHead) SignedTreeHead { h.Root[0] ^= 1; return h },
		func(h SignedTreeHead) SignedTreeHead { h.Timestamp = h.Timestamp.Add(time.Second); return h },
	} {
		if err := mutate(head).Verify(s.Public()); err == nil {
			t.Error("mutated STH accepted")
		}
	}
}

// TestLogHeadRootIsTheRootAtItsSize: a head signed while leaves are being
// appended commits to the root of the tree at the size it names. A head that
// read its size and then the root of a grown tree vouched for a pair no log
// ever had, which every later extension check refuses.
func TestLogHeadRootIsTheRootAtItsSize(t *testing.T) {
	log := NewLog(testSigner(t), nil)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				log.Append([]byte(fmt.Sprintf("leaf-%d", i)))
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 500; i++ {
		head := log.Head()
		if root, err := log.Tree().RootAt(head.Size); err != nil || root != head.Root {
			t.Fatalf("head %d of size %d signs a root that is not the tree's at that size (%v)", i, head.Size, err)
		}
	}
}

func TestLogCheckExtends(t *testing.T) {
	s := testSigner(t)
	log := NewLog(s, nil)
	for i := 0; i < 10; i++ {
		log.Append([]byte(fmt.Sprintf("v%d", i)))
	}
	remembered := log.Head()
	for i := 10; i < 25; i++ {
		log.Append([]byte(fmt.Sprintf("v%d", i)))
	}
	if err := log.CheckExtends(remembered, s.Public()); err != nil {
		t.Errorf("honest extension rejected: %v", err)
	}

	// A log that rewrote an entry before the remembered head must fail.
	evil := NewLog(s, nil)
	for i := 0; i < 25; i++ {
		entry := fmt.Sprintf("v%d", i)
		if i == 5 {
			entry = "v5-REWRITTEN"
		}
		evil.Append([]byte(entry))
	}
	if err := evil.CheckExtends(remembered, s.Public()); !errors.Is(err, ErrProofInvalid) {
		t.Errorf("rewritten log passed CheckExtends: %v", err)
	}

	// A forged STH (wrong signature) must fail before any proof work.
	forged := remembered
	forged.Size = 3
	if err := log.CheckExtends(forged, s.Public()); !errors.Is(err, vcrypto.ErrBadSignature) {
		t.Errorf("forged STH accepted: %v", err)
	}
}

func TestLogProveInclusion(t *testing.T) {
	s := testSigner(t)
	log := NewLog(s, nil)
	var datas [][]byte
	for i := 0; i < 12; i++ {
		d := []byte(fmt.Sprintf("entry-%d", i))
		datas = append(datas, d)
		log.Append(d)
	}
	head := log.Head()
	for i := uint64(0); i < 12; i++ {
		proof, size, err := log.ProveInclusion(i)
		if err != nil {
			t.Fatal(err)
		}
		if size != head.Size {
			t.Fatalf("proof size %d != head size %d", size, head.Size)
		}
		if err := VerifyInclusion(datas[i], i, size, proof, head.Root); err != nil {
			t.Errorf("inclusion %d: %v", i, err)
		}
	}
}

func TestLogTimestampsUseInjectedClock(t *testing.T) {
	s := testSigner(t)
	fixed := time.Date(2031, 5, 1, 0, 0, 0, 0, time.UTC)
	log := NewLog(s, func() time.Time { return fixed })
	log.Append([]byte("x"))
	if got := log.Head().Timestamp; !got.Equal(fixed) {
		t.Errorf("timestamp = %v, want %v", got, fixed)
	}
}

func TestLogFromLeafHashes(t *testing.T) {
	s := testSigner(t)
	log := NewLog(s, nil)
	for i := 0; i < 9; i++ {
		log.Append([]byte(fmt.Sprintf("e%d", i)))
	}
	head := log.Head()
	rebuilt := LogFromLeafHashes(s, nil, log.Tree().LeafHashes())
	if rebuilt.Size() != log.Size() {
		t.Fatal("size mismatch after rebuild")
	}
	if rebuilt.Head().Root != head.Root {
		t.Error("root mismatch after rebuild")
	}
	if err := rebuilt.CheckExtends(head, s.Public()); err != nil {
		t.Errorf("rebuilt log not consistent with prior head: %v", err)
	}
}
