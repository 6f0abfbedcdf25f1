package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

func openTemp(t *testing.T, fn func(Entry) error) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFS(faultfs.OS{}, path, fn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func TestAppendAssignsSequences(t *testing.T) {
	l, _ := openTemp(t, nil)
	for i := uint64(0); i < 10; i++ {
		seq, err := l.Append([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if seq != i {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if l.NextSeq() != 10 {
		t.Errorf("NextSeq = %d, want 10", l.NextSeq())
	}
}

func TestReplayAfterReopen(t *testing.T) {
	l, path := openTemp(t, nil)
	var want [][]byte
	for i := 0; i < 20; i++ {
		d := []byte(fmt.Sprintf("intent-%d", i))
		want = append(want, d)
		if _, err := l.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	var got []Entry
	re, err := OpenFS(faultfs.OS{}, path, func(e Entry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Seq != uint64(i) || !bytes.Equal(e.Data, want[i]) {
			t.Errorf("entry %d: seq=%d data=%q", i, e.Seq, e.Data)
		}
	}
	if re.NextSeq() != 20 {
		t.Errorf("NextSeq after reopen = %d, want 20", re.NextSeq())
	}
}

// TestTornTailTruncated: garbage past the last whole frame is a torn write,
// cut on open, in either layout: a torn Var frame after a log this package
// wrote, and the original torn Seq header (sequence number 5) after a legacy
// log of five Seq frames.
func TestTornTailTruncated(t *testing.T) {
	var legacy []byte
	for i := uint64(0); i < 5; i++ {
		legacy = frame.Seq.Append(legacy, i, []byte(fmt.Sprintf("e%d", i)))
	}
	for name, torn := range map[string][]byte{
		"var":    frame.Var.Append(nil, 0, []byte("a torn entry"))[:9],
		"legacy": {0, 0, 0, 0, 0, 0, 0, 5, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			l, path := openTemp(t, nil)
			if name == "legacy" {
				l.Close()
				if err := os.WriteFile(path, legacy, 0o600); err != nil {
					t.Fatal(err)
				}
			} else {
				for i := 0; i < 5; i++ {
					if _, err := l.Append([]byte(fmt.Sprintf("e%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				l.Close()
			}

			// Append garbage simulating a torn write.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(torn)
			f.Close()

			n := 0
			re, err := OpenFS(faultfs.OS{}, path, func(e Entry) error { n++; return nil })
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer re.Close()
			if n != 5 {
				t.Errorf("replayed %d entries, want 5", n)
			}
			if re.NextSeq() != 5 {
				t.Errorf("NextSeq = %d, want 5", re.NextSeq())
			}
			if _, err := re.Append([]byte("recovered")); err != nil {
				t.Errorf("append after torn-tail recovery: %v", err)
			}
		})
	}
}

// TestCorruptMiddleEntryRejected: a Var frame carries no sequence number, so
// the frames after a removed layout marker still check; Open must refuse
// them rather than read the file as a torn empty log. (A legacy log's
// sequence gap is TestReadLeavesTornTailRefusesGap's.)
func TestCorruptMiddleEntryRejected(t *testing.T) {
	l, path := openTemp(t, nil)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	marker := len(frame.Seq.Append(nil, 0, layoutMarker))
	if err := os.WriteFile(path, raw[marker:], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFS(faultfs.OS{}, path, nil); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "no layout marker") {
		t.Errorf("Var frames without their layout marker: %v, want ErrCorrupt naming the marker", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw[marker:]) {
		t.Errorf("a refused log was changed from %d to %d bytes", len(raw)-marker, len(after))
	}
}

// TestReadLeavesTornTailRefusesGap: Read, the decoder OpenFS replays
// through, reports a torn tail as the gap between the valid prefix and the
// file's size and leaves it in place, and refuses a sequence gap.
func TestReadLeavesTornTailRefusesGap(t *testing.T) {
	mem := faultfs.NewMem()
	var image []byte
	for i := uint64(0); i < 3; i++ {
		image = frame.Seq.Append(image, i, []byte(fmt.Sprintf("e%d", i)))
	}
	torn := append(bytes.Clone(image), frame.Seq.Append(nil, 3, []byte("torn"))[:7]...)
	if err := mem.WriteFile("wal.log", torn, 0o600); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	valid, size, err := Read(mem, "wal.log", func(e Entry) error { seqs = append(seqs, e.Seq); return nil })
	if err != nil || valid != int64(len(image)) || size != int64(len(torn)) || len(seqs) != 3 {
		t.Fatalf("Read over a torn tail = %d, %d, %v with %d entries; want %d, %d, nil with 3",
			valid, size, err, len(seqs), len(image), len(torn))
	}
	if after, _ := mem.ReadFile("wal.log"); !bytes.Equal(after, torn) {
		t.Errorf("Read changed the file from %d to %d bytes; it must only read", len(torn), len(after))
	}

	// Renumber the first entry (its sequence number is outside the CRC):
	// every frame still checks, but the log skips entry 0.
	gap := bytes.Clone(image)
	binary.BigEndian.PutUint64(gap, 1)
	if err := mem.WriteFile("gap.log", gap, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(mem, "gap.log", func(Entry) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Read over a sequence gap = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointEmptiesLog(t *testing.T) {
	l, path := openTemp(t, nil)
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Errorf("Size after checkpoint = %d", l.Size())
	}
	if l.NextSeq() != 0 {
		t.Errorf("NextSeq after checkpoint = %d", l.NextSeq())
	}
	// Post-checkpoint appends replay alone.
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var got []Entry
	re, err := OpenFS(faultfs.OS{}, path, func(e Entry) error { got = append(got, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(got) != 1 || string(got[0].Data) != "after" {
		t.Errorf("replay after checkpoint = %v", got)
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	l, path := openTemp(t, nil)
	l.Append([]byte("a"))
	l.Close()
	boom := errors.New("boom")
	if _, err := OpenFS(faultfs.OS{}, path, func(Entry) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("replay error not propagated: %v", err)
	}
}

func TestClosedLog(t *testing.T) {
	l, _ := openTemp(t, nil)
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after close: %v", err)
	}
	if err := l.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	l, path := openTemp(t, nil)
	const writers, per = 8, 20
	var wg sync.WaitGroup
	seqs := make(chan uint64, writers*per)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.Append([]byte(fmt.Sprintf("w%d", w)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				seqs <- seq
			}
		}(w)
	}
	wg.Wait()
	close(seqs)
	seen := make(map[uint64]bool)
	for s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate sequence %d", s)
		}
		seen[s] = true
	}
	l.Close()
	n := 0
	re, err := OpenFS(faultfs.OS{}, path, func(Entry) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n != writers*per {
		t.Errorf("replayed %d, want %d", n, writers*per)
	}
}

// TestEmptyPayloadRefused: an empty entry's frame is what a run of zeros
// spells, which recovery cuts as a torn tail, so Enqueue refuses one; the
// log takes the next entry at the sequence number the refused one did not.
func TestEmptyPayloadRefused(t *testing.T) {
	l, path := openTemp(t, nil)
	if _, err := l.Append(nil); !errors.Is(err, errEmpty) {
		t.Fatalf("Append(nil) = %v, want errEmpty", err)
	}
	if seq, err := l.Append([]byte("x")); err != nil || seq != 0 {
		t.Fatalf("Append after the refusal = %d, %v; want 0", seq, err)
	}
	l.Close()
	n := 0
	re, err := OpenFS(faultfs.OS{}, path, func(e Entry) error {
		if string(e.Data) != "x" {
			t.Errorf("replayed %q, want \"x\"", e.Data)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	if n != 1 {
		t.Errorf("replayed %d entries, want 1", n)
	}
}

// TestCheckpointRenameFailureKeepsLogUsable is the regression test for the
// checkpoint failure-atomicity bug: the old implementation closed the live
// handle before building the replacement, so a failed rename left the log
// holding a closed file and every later Append failed permanently.
func TestCheckpointRenameFailureKeepsLogUsable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	injected := errors.New("injected rename failure")
	failRename := false
	fsys := faultfs.NewFaulty(faultfs.OS{}, func(op faultfs.Op) *faultfs.Fault {
		if failRename && op.Kind == faultfs.OpRename {
			return &faultfs.Fault{Err: injected}
		}
		return nil
	})
	l, err := OpenFS(fsys, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	failRename = true
	err = l.Checkpoint()
	failRename = false
	if !errors.Is(err, injected) {
		t.Fatalf("Checkpoint error = %v, want injected failure", err)
	}

	// The log must still accept appends, continuing the sequence.
	seq, err := l.Append([]byte("post"))
	if err != nil {
		t.Fatalf("Append after failed checkpoint: %v", err)
	}
	if seq != 5 {
		t.Errorf("seq after failed checkpoint = %d, want 5", seq)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint temp file left behind: %v", err)
	}
	l.Close()

	// Reopen: all six entries survive — the failed checkpoint dropped nothing.
	var got []Entry
	re, err := OpenFS(faultfs.OS{}, path, func(e Entry) error { got = append(got, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(got) != 6 {
		t.Fatalf("replayed %d entries, want 6", len(got))
	}
	if string(got[5].Data) != "post" {
		t.Errorf("last entry = %q, want %q", got[5].Data, "post")
	}
}

// TestCheckpointTempFailureKeepsLogUsable covers the earlier failure point:
// the temp file cannot be created at all.
func TestCheckpointTempFailureKeepsLogUsable(t *testing.T) {
	l, path := openTemp(t, nil)
	if _, err := l.Append([]byte("keep")); err != nil {
		t.Fatal(err)
	}
	// Occupy the temp path with a directory so O_CREATE fails.
	if err := os.Mkdir(path+".tmp", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded with unusable temp path")
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatalf("Append after failed checkpoint: %v", err)
	}
	// And a subsequent checkpoint with the obstruction gone succeeds.
	if err := l.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after recovery: %v", err)
	}
	if l.NextSeq() != 0 {
		t.Errorf("NextSeq after checkpoint = %d, want 0", l.NextSeq())
	}
}

// TestGroupCommitCoalesces writes several entries before invoking any wait:
// the first wait runs an fsync that covers them all, so all entries must
// share one group commit. The group-commit counter pins the "one fsync, many
// entries" claim; the later waits find their entries durable and do no I/O
// of their own.
func TestGroupCommitCoalesces(t *testing.T) {
	l, path := openTemp(t, nil)
	before := metGroupCommits.Value()

	const n = 5
	waits := make([]func() error, 0, n)
	for i := 0; i < n; i++ {
		seq, _, wait := enqueue(l, Durable, nil, []byte(fmt.Sprintf("entry-%d", i)))
		if seq != uint64(i) {
			t.Fatalf("Enqueue seq = %d, want %d", seq, i)
		}
		waits = append(waits, wait)
	}
	// The first wait runs the fsync that covers every entry; the later
	// waits then find their entries already durable.
	for i, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	if got := metGroupCommits.Value() - before; got != 1 {
		t.Errorf("group commits = %d, want 1 (all %d entries in one batch)", got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var replayed []Entry
	l2, err := OpenFS(faultfs.OS{}, path, func(e Entry) error { replayed = append(replayed, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(replayed) != n {
		t.Fatalf("replayed %d entries, want %d", len(replayed), n)
	}
	for i, e := range replayed {
		if e.Seq != uint64(i) || string(e.Data) != fmt.Sprintf("entry-%d", i) {
			t.Errorf("entry %d: seq=%d data=%q", i, e.Seq, e.Data)
		}
	}
}

// TestEnqueueOrderEqualsReplayOrder holds an external lock across Enqueue,
// released before wait, and checks that replay order equals enqueue order:
// Enqueue numbers entries in call order.
func TestEnqueueOrderEqualsReplayOrder(t *testing.T) {
	l, path := openTemp(t, nil)

	const writers, perWriter = 8, 25
	var (
		seqMu sync.Mutex
		order []string // payloads in enqueue order
		wg    sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				payload := fmt.Sprintf("w%d-%d", w, i)
				seqMu.Lock()
				_, _, wait := enqueue(l, Durable, nil, []byte(payload))
				order = append(order, payload)
				seqMu.Unlock()
				if err := wait(); err != nil {
					t.Errorf("wait %s: %v", payload, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var replayed []string
	l2, err := OpenFS(faultfs.OS{}, path, func(e Entry) error {
		if e.Seq != uint64(len(replayed)) {
			return fmt.Errorf("seq %d at position %d", e.Seq, len(replayed))
		}
		replayed = append(replayed, string(e.Data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(replayed) != len(order) {
		t.Fatalf("replayed %d entries, want %d", len(replayed), len(order))
	}
	for i := range order {
		if replayed[i] != order[i] {
			t.Fatalf("position %d: replayed %q, enqueued %q", i, replayed[i], order[i])
		}
	}
}

// TestDurableHooksRunInSeqOrder: concurrent enqueuers' durable hooks run in
// sequence order — the order replay sees — and each entry's hook has run by
// the time its wait returns. The vault's Merkle log follows meta.wal this way.
func TestDurableHooksRunInSeqOrder(t *testing.T) {
	l, path := openTemp(t, nil)

	const writers, perWriter = 8, 25
	var (
		hooked []string // payloads in hook order; the hooks run one at a time
		wg     sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				payload := fmt.Sprintf("w%d-%d", w, i)
				var ran atomic.Bool
				_, _, wait := enqueue(l, Durable, func() {
					hooked = append(hooked, payload)
					ran.Store(true)
				}, []byte(payload))
				if err := wait(); err != nil {
					t.Errorf("wait %s: %v", payload, err)
					return
				}
				if !ran.Load() {
					t.Errorf("wait %s returned before its durable hook ran", payload)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var replayed []string
	if _, _, err := Read(faultfs.OS{}, path, func(e Entry) error {
		replayed = append(replayed, string(e.Data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != writers*perWriter || len(replayed) != len(hooked) {
		t.Fatalf("%d hooks ran and %d entries replayed, want %d each", len(hooked), len(replayed), writers*perWriter)
	}
	for i := range replayed {
		if hooked[i] != replayed[i] {
			t.Fatalf("seq %d: replayed %q, hook %q ran in its place", i, replayed[i], hooked[i])
		}
	}
}

// TestDurableHookSkipsFailedBatch: no hook runs for an entry whose batch's
// fsync fails, for an entry queued behind that batch, or for any entry of
// the wedged log; a hook before the failure runs, and Append, which passes
// none, appends as before.
func TestDurableHookSkipsFailedBatch(t *testing.T) {
	inSync, release := make(chan struct{}), make(chan struct{})
	syncs := 0
	// The third sync fails, once one more entry has queued behind its batch.
	fsys := faultfs.NewFaulty(faultfs.NewMem(), func(op faultfs.Op) *faultfs.Fault {
		if op.Kind != faultfs.OpSync {
			return nil
		}
		if syncs++; syncs == 3 {
			close(inSync)
			return &faultfs.Fault{Hold: release, Err: faultfs.ErrInjected}
		}
		return nil
	})
	l, err := OpenFS(fsys, "wal.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ran []string
	hook := func(name string) func() { return func() { ran = append(ran, name) } }

	if _, err := l.Append([]byte("plain")); err != nil {
		t.Fatal(err)
	}
	if _, _, wait := enqueue(l, Durable, hook("durable"), []byte("durable")); wait() != nil {
		t.Fatal("first hooked entry failed")
	}
	_, _, failing := enqueue(l, Durable, hook("failing"), []byte("failing"))
	_, _, sibling := enqueue(l, Durable, hook("sibling"), []byte("sibling"))
	failed := make(chan error, 1)
	go func() { failed <- failing() }() // its fsync covers both
	<-inSync
	_, _, queued := enqueue(l, Durable, hook("queued"), []byte("queued"))
	close(release)
	for name, err := range map[string]error{"failing": <-failed, "sibling": sibling(), "queued": queued()} {
		if !errors.Is(err, ErrWedged) {
			t.Errorf("%s entry: err %v, want ErrWedged", name, err)
		}
	}
	if _, _, wait := enqueue(l, Durable, hook("after"), []byte("after")); !errors.Is(wait(), ErrWedged) {
		t.Error("an entry of the wedged log did not fail with ErrWedged")
	}
	if len(ran) != 1 || ran[0] != "durable" {
		t.Errorf("hooks ran for %q, want only the durable entry's", ran)
	}
}

// TestLeaderReturnsBeforeLaterBatch: a wait that runs an fsync returns when
// that fsync ends, while an entry written during it is still in the next
// fsync, which that entry's own wait runs. (A leader used to flush every
// later batch too, so its caller waited on other writers' fsyncs, with no
// bound under sustained load.)
func TestLeaderReturnsBeforeLaterBatch(t *testing.T) {
	holds := []chan struct{}{make(chan struct{}), make(chan struct{})}
	entered := make(chan int, 4)
	syncs := 0
	fsys := faultfs.NewFaulty(faultfs.NewMem(), func(op faultfs.Op) *faultfs.Fault {
		if op.Kind != faultfs.OpSync {
			return nil
		}
		syncs++
		entered <- syncs
		if syncs <= len(holds) {
			return &faultfs.Fault{Hold: holds[syncs-1]}
		}
		return nil
	})
	l, err := OpenFS(fsys, "wal.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	released := false
	defer func() {
		if !released {
			close(holds[1]) // unblock a leader still flushing the later batch
		}
	}()

	_, _, leader := enqueue(l, Durable, nil, []byte("leader"))
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- leader() }()
	if n := <-entered; n != 1 {
		t.Fatalf("sync %d began first", n)
	}
	_, _, later := enqueue(l, Durable, nil, []byte("later"))
	laterDone := make(chan error, 1)
	go func() { laterDone <- later() }()
	close(holds[0])

	select {
	case err := <-leaderDone:
		if err != nil {
			t.Fatalf("leader: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the leader's wait did not return while the later batch's fsync is held")
	}
	if n := <-entered; n != 2 {
		t.Fatalf("sync %d began second", n)
	}
	select {
	case err := <-laterDone:
		t.Fatalf("the later entry's wait returned before its fsync did: %v", err)
	default:
	}
	released = true
	close(holds[1])
	if err := <-laterDone; err != nil {
		t.Fatalf("later: %v", err)
	}
	if syncs != 2 {
		t.Errorf("%d fsyncs for two batches", syncs)
	}
}

// TestCoveredWaitSkipsLaterFsync: a wait whose entry an fsync covers
// returns when that fsync ends, although another wait ran it and the next
// fsync has begun. A, B and D are written and A's wait runs fsync 1; C is
// written during it, and C's wait runs fsync 2, which the test holds. B's
// wait, begun during fsync 1, and D's, begun during fsync 2, return
// meanwhile.
func TestCoveredWaitSkipsLaterFsync(t *testing.T) {
	holds := []chan struct{}{make(chan struct{}), make(chan struct{})}
	entered := make(chan int, 4)
	syncs := 0
	fsys := faultfs.NewFaulty(faultfs.NewMem(), func(op faultfs.Op) *faultfs.Fault {
		if op.Kind != faultfs.OpSync {
			return nil
		}
		syncs++
		entered <- syncs
		if syncs <= len(holds) {
			return &faultfs.Fault{Hold: holds[syncs-1]}
		}
		return nil
	})
	l, err := OpenFS(fsys, "wal.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	released := false
	defer func() {
		if !released {
			close(holds[1])
		}
	}()
	run := func(wait func() error) chan error {
		done := make(chan error, 1)
		go func() { done <- wait() }()
		return done
	}

	_, _, a := enqueue(l, Durable, nil, []byte("A"))
	_, _, b := enqueue(l, Durable, nil, []byte("B"))
	_, _, d := enqueue(l, Durable, nil, []byte("D"))
	aDone := run(a)
	if n := <-entered; n != 1 {
		t.Fatalf("sync %d began first", n)
	}
	_, _, c := enqueue(l, Durable, nil, []byte("C"))
	bDone, cDone := run(b), run(c)
	close(holds[0])
	if n := <-entered; n != 2 {
		t.Fatalf("sync %d began second", n)
	}
	for _, w := range []struct {
		name string
		done chan error
	}{{"A", aDone}, {"B", bDone}, {"D", run(d)}} {
		select {
		case err := <-w.done:
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s's wait did not return while fsync 2 is held", w.name)
		}
	}
	select {
	case err := <-cDone:
		t.Fatalf("C's wait returned (%v) before its fsync did", err)
	default:
	}
	released = true
	close(holds[1])
	if err := <-cDone; err != nil {
		t.Fatalf("C: %v", err)
	}
	if syncs != 2 {
		t.Errorf("%d fsyncs, want 2", syncs)
	}
}

// TestWriteFailureWedgesLog: after a failed write or fsync the on-disk tail
// is unknown, so the log must refuse all further appends and checkpoints
// rather than risk writing after a gap.
func TestWriteFailureWedgesLog(t *testing.T) {
	l, _ := openTemp(t, nil)
	if _, err := l.Append([]byte("healthy")); err != nil {
		t.Fatal(err)
	}
	// Sabotage the descriptor so the next batch write fails.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()

	if _, err := l.Append([]byte("doomed")); err == nil {
		t.Fatal("Append after descriptor failure succeeded")
	} else if !errors.Is(err, ErrWedged) {
		t.Fatalf("wedging append error %v does not carry ErrWedged", err)
	}
	if _, err := l.Append([]byte("after-wedge")); err == nil {
		t.Fatal("Append on wedged log succeeded")
	} else if !errors.Is(err, ErrWedged) {
		t.Fatalf("post-wedge append error %v does not carry ErrWedged", err)
	} else if l.wedged == nil {
		t.Fatal("log not marked wedged after write failure")
	}
	if err := l.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on wedged log succeeded")
	}
}

// TestCheckpointDuringConcurrentAppends races Checkpoint against a steady
// append load: whatever interleaving happens, the surviving file must replay
// as a contiguous sequence from zero.
func TestCheckpointDuringConcurrentAppends(t *testing.T) {
	l, path := openTemp(t, nil)

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := l.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	count := 0
	l2, err := OpenFS(faultfs.OS{}, path, func(e Entry) error {
		if e.Seq != uint64(count) {
			return fmt.Errorf("seq %d at position %d", e.Seq, count)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if count > writers*perWriter {
		t.Fatalf("replayed %d entries, more than the %d ever appended", count, writers*perWriter)
	}
}

// TestWrittenEntriesSkipTheFsync: a Written entry is written and not
// fsynced, readable once Enqueue returns, and Size, the durable bytes, stays
// put: a power cut loses it. A Durable entry's fsync makes every byte before
// it durable. A Written entry written just before a Durable one is done
// while the Durable entry's fsync, which covers both, is still in flight.
func TestWrittenEntriesSkipTheFsync(t *testing.T) {
	mem := faultfs.NewMem()
	var writes, syncs int
	hold := make(chan struct{})
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		switch op.Kind {
		case faultfs.OpWrite:
			writes++
		case faultfs.OpSync:
			if syncs++; syncs == 2 {
				return &faultfs.Fault{Hold: hold}
			}
		}
		return nil
	})
	l, err := OpenFS(fsys, "wal.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	replayed := func(keep faultfs.KeepPolicy) []string {
		t.Helper()
		var got []string
		if _, _, err := Read(mem.CrashImage(keep), "wal.log", func(e Entry) error {
			got = append(got, string(e.Data))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	_, off, wait := enqueue(l, Written, nil, []byte("read-1"))
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if data, err := l.ReadAt(off); err != nil || string(data) != "read-1" {
		t.Fatalf("ReadAt of a written entry = %q, %v", data, err)
	}
	if writes != 1 || syncs != 0 || l.Size() != 0 {
		t.Fatalf("a Written batch: %d writes, %d fsyncs, %d durable bytes; want 1, 0 and 0", writes, syncs, l.Size())
	}
	if got := replayed(faultfs.KeepNone); len(got) != 0 {
		t.Fatalf("a power cut kept %q", got)
	}
	if _, err := l.Append([]byte("put-1")); err != nil {
		t.Fatal(err)
	}
	if got := replayed(faultfs.KeepNone); len(got) != 2 || l.Size() != int64(len(mustRead(t, mem))) {
		t.Fatalf("after a Durable entry a power cut keeps %q (%d of %d bytes durable), want both entries", got, l.Size(), len(mustRead(t, mem)))
	}

	_, _, durable := enqueue(l, Durable, nil, []byte("put-2"))
	_, _, written := enqueue(l, Written, nil, []byte("read-2"))
	durableDone, writtenDone := make(chan error, 1), make(chan error, 1)
	go func() { durableDone <- durable() }() // its fsync is held
	go func() { writtenDone <- written() }()
	select {
	case err := <-writtenDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(hold)
		t.Fatal("a Written entry waited for its batch's fsync")
	}
	select {
	case err := <-durableDone:
		t.Fatalf("the Durable entry returned (%v) before its fsync", err)
	default:
	}
	close(hold)
	if err := <-durableDone; err != nil {
		t.Fatal(err)
	}
	if got := replayed(faultfs.KeepNone); len(got) != 4 {
		t.Fatalf("a power cut after the shared fsync keeps %q, want all four entries", got)
	}
}

// enqueue is Enqueue with the write's error, or a Written entry's success,
// returned by the wait, for a test that waits on every entry alike.
func enqueue(l *Log, want Durability, hook func(), parts ...[]byte) (uint64, int64, func() error) {
	seq, off, wait, err := l.Enqueue(want, hook, parts...)
	if err != nil || wait == nil {
		return seq, off, func() error { return err }
	}
	return seq, off, wait
}

func mustRead(t *testing.T, mem *faultfs.Mem) []byte {
	t.Helper()
	data, err := mem.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScanReadsWhatReadAtReads: Scan hands fn every written entry from an
// offset on, in order, each as ReadAt reads it, across reads that split an
// entry and entries larger than one read; an entry whose payload was
// edited under its old CRC is ErrCorrupt.
func TestScanReadsWhatReadAtReads(t *testing.T) {
	mem := faultfs.NewMem()
	l, err := OpenFS(mem, "wal.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var offs []int64
	for i, size := range []int{10, scanChunk - 7, 300, 3 * scanChunk, 1, scanChunk} {
		data := bytes.Repeat([]byte{byte('a' + i)}, size)
		want := Written
		if i%2 == 1 {
			want = Durable
		}
		_, off, wait := enqueue(l, want, nil, data)
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	for _, from := range []int{0, 2} {
		i := from
		if err := l.Scan(offs[from], func(off int64, data []byte) error {
			want, err := l.ReadAt(offs[i])
			if err != nil || off != offs[i] || !bytes.Equal(data, want) {
				t.Fatalf("entry %d: Scan gave offset %d (%d B), want %d (%d B, %v)", i, off, len(data), offs[i], len(want), err)
			}
			i++
			return nil
		}); err != nil || i != len(offs) {
			t.Fatalf("Scan from entry %d: %d entries, %v", from, i-from, err)
		}
	}
	image, _ := mem.ReadFile("wal.log")
	image[offs[3]+100] ^= 1
	if err := mem.WriteFile("wal.log", image, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := l.Scan(offs[0], func(int64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan over an edited entry: %v, want ErrCorrupt", err)
	}
}
