package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/obs"
)

// spanTree renders a span tree as name(attrs)[children], one span after
// another. An attribute shows its key, and its value too when the value is a
// function of the operation alone — a cache verdict, a hit count, a keyword
// count — rather than of sizes, sequence numbers or leaf positions.
func spanTree(spans []*obs.Span) string {
	var b strings.Builder
	for i, s := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name)
		if len(s.Attrs) > 0 {
			attrs := make([]string, len(s.Attrs))
			for j, a := range s.Attrs {
				attrs[j] = a.Key
				if slices.Contains([]string{"dek_cache", "block_cache", "hits", "keywords"}, a.Key) {
					attrs[j] += "=" + a.Value
				}
			}
			b.WriteString("(" + strings.Join(attrs, ",") + ")")
		}
		if len(s.Children) > 0 {
			b.WriteString("[" + spanTree(s.Children) + "]")
		}
	}
	return b.String()
}

// TestSpanTree pins the span tree of every traced record operation on a
// one-shard durable vault — span names, parents and attribute keys, and the
// deterministic attribute values — and checks that every audit event an
// operation writes names its trace. The reads run on a reopened vault, so the
// first get misses the DEK and block caches and the second hits both.
func TestSpanTree(t *testing.T) {
	dir, master, vc := t.TempDir(), mustKey(t), mustClock()
	open := func() *Cluster {
		c, err := Open(Config{Name: "span-tree", Master: master, Clock: vc, Dir: dir, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		registerStaff(t, c)
		return c
	}
	rec := clinicalRecord(t, 1)
	amended := rec
	amended.Body += " (amended)"
	kw := strings.Fields(rec.Title)[0]

	// Every operation's first child is its access decision's audit append.
	const (
		version = "[audit.append crypto.seal(plaintext_bytes) wal.enqueue(bytes,seq) wal.commit(seq) merkle.append(leaf) index.add]"
		logged  = "audit.append wal.enqueue(bytes,seq) wal.commit(seq)"
		read    = "[audit.append core.read_version(block_cache=%s)[keystore.get(dek_cache=%s) crypto.open(ciphertext_bytes)]]"
	)
	steps := []struct {
		name   string
		reopen bool // close and reopen the vault first
		run    func(context.Context, *Cluster) error
		want   string
	}{
		{name: "put", run: func(ctx context.Context, c *Cluster) error {
			_, err := c.PutCtx(ctx, "dr-house", rec)
			return err
		}, want: "core.put" + version},
		{name: "correct", run: func(ctx context.Context, c *Cluster) error {
			_, err := c.CorrectCtx(ctx, "dr-house", amended)
			return err
		}, want: "core.correct" + version},
		{name: "get (cold)", reopen: true, run: func(ctx context.Context, c *Cluster) error {
			_, _, err := c.GetCtx(ctx, "dr-house", rec.ID)
			return err
		}, want: "core.get" + fmt.Sprintf(read, "miss", "miss")},
		{name: "get (warm)", run: func(ctx context.Context, c *Cluster) error {
			_, _, err := c.GetCtx(ctx, "dr-house", rec.ID)
			return err
		}, want: "core.get" + fmt.Sprintf(read, "hit", "hit")},
		{name: "get_version", run: func(ctx context.Context, c *Cluster) error {
			_, _, err := c.GetVersionCtx(ctx, "dr-house", rec.ID, 1)
			return err
		}, want: "core.get_version" + fmt.Sprintf(read, "miss", "hit")},
		{name: "history", run: func(ctx context.Context, c *Cluster) error {
			_, err := c.HistoryCtx(ctx, "dr-house", rec.ID)
			return err
		}, want: "core.history[audit.append]"},
		{name: "search", run: func(ctx context.Context, c *Cluster) error {
			_, err := c.SearchCtx(ctx, "dr-house", kw)
			return err
		}, want: "core.search[audit.append index.search(hits=1)]"},
		{name: "search_all", run: func(ctx context.Context, c *Cluster) error {
			_, err := c.SearchAllCtx(ctx, "dr-house", kw, "amended")
			return err
		}, want: "core.search[audit.append index.search(keywords=2,hits=1)]"},
		{name: "prove_version", run: func(ctx context.Context, c *Cluster) error {
			_, err := c.ProveVersionCtx(ctx, "dr-house", rec.ID, 2)
			return err
		}, want: "core.prove_version[audit.append merkle.prove(leaf)]"},
		{name: "place_hold", run: func(ctx context.Context, c *Cluster) error {
			return c.PlaceHoldCtx(ctx, "arch-lee", rec.ID, "litigation")
		}, want: "core.place_hold[" + logged + " audit.append]"},
		{name: "release_hold", run: func(ctx context.Context, c *Cluster) error {
			return c.ReleaseHoldCtx(ctx, "arch-lee", rec.ID)
		}, want: "core.release_hold[" + logged + " audit.append]"},
		{name: "audit_events", run: func(ctx context.Context, c *Cluster) error {
			_, err := c.AuditEventsCtx(ctx, "officer-kim", audit.Query{Record: rec.ID})
			return err
		}, want: "core.audit_events[audit.append]"},
		{name: "shred", run: func(ctx context.Context, c *Cluster) error {
			vc.Advance(40 * 365 * 24 * time.Hour)
			return c.ShredCtx(ctx, "arch-lee", rec.ID)
		}, want: "core.shred[" + logged + " index.remove]"},
	}

	c := open()
	for _, st := range steps {
		if st.reopen {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			c = open()
		}
		aud := c.shards[0].aud
		before := aud.Len()
		tracer := obs.NewTracer(obs.TracerConfig{})
		ctx, tr := tracer.Start(context.Background(), st.name, "")
		err := st.run(ctx, c)
		tracer.Finish(tr, err)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got := spanTree(tr.Spans); got != st.want {
			t.Errorf("%s: span tree\n got  %s\n want %s", st.name, got, st.want)
		}
		events, err := aud.Search(audit.Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == before {
			t.Errorf("%s: wrote no audit event", st.name)
		}
		for _, e := range events[before:] {
			if e.Trace != tr.ID {
				t.Errorf("%s: audit event %d (%s) names trace %q, want %q", st.name, e.Seq, e.Action, e.Trace, tr.ID)
			}
		}
	}
	c.Close()
}

// TestUntracedOpsFormatNoAttributes: an operation without a trace formats no
// span attribute, since its spans are nil. Past 300 puts a WAL sequence number
// and a Merkle leaf index exceed 99, where strconv starts to allocate, so a
// correction would pay five allocations for attributes nobody records and a
// get one. The counts are pinned as ceilings: a new allocation on either path
// must be a deliberate change to this test.
func TestUntracedOpsFormatNoAttributes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	v, _ := newVault(t)
	ctx := context.Background()
	const runs = 50
	recs := clinicalRecords(t, 7, 300+runs+1)
	for _, r := range recs {
		if _, err := v.PutCtx(ctx, "dr-house", r); err != nil {
			t.Fatal(err)
		}
	}
	get := testing.AllocsPerRun(runs, func() {
		if _, _, err := v.GetCtx(ctx, "dr-house", recs[0].ID); err != nil {
			t.Fatal(err)
		}
	})
	next := recs[300:]
	correct := testing.AllocsPerRun(runs, func() {
		r := next[0]
		next = next[1:]
		r.Body += " (amended)"
		if _, err := v.CorrectCtx(ctx, "dr-house", r); err != nil {
			t.Fatal(err)
		}
	})
	if get > 29 || correct > 86 {
		t.Errorf("untraced get: %.0f allocations, want at most 29; untraced correct: %.0f, want at most 86", get, correct)
	}
}
