package audit

import (
	"testing"
	"time"

	"medvault/internal/frame"
	"medvault/internal/vcrypto"
)

func goldenHash(seed byte) (h [32]byte) {
	for i := range h {
		h[i] = seed + byte(i)
	}
	return h
}

// TestGoldenEvent pins the persisted v8 event layout, the legacy v7, v6, v5,
// v4, v3 and v2 layouts it still reads, and the byte strings the chain
// hashes, the v8 and v7 tag and the v6 and v5 MACs cover and checkpoints
// sign.
func TestGoldenEvent(t *testing.T) {
	if len(outcomeWords) > 3 {
		t.Fatalf("%d outcome words; a v8 shape byte indexes at most 3", len(outcomeWords))
	}
	ev := Event{
		Seq: 3, Timestamp: time.Unix(0, 1190000000123456789).UTC(), Actor: "dr-a",
		Action: ActionCorrect, Record: "p1-enc-0", Version: 2, Outcome: OutcomeAllowed,
		Detail: "fix dose", Trace: "trace-1", PrevHash: goldenHash(0x10), Hash: goldenHash(0x40),
		MAC: []byte{0xa1, 0xa2, 0xa3, 0xa4},
	}
	// v3 and later store neither Seq nor Hash; decoding the 3rd event
	// recomputes both, and a hex trace ID is stored as the bytes it spells.
	v3 := ev
	v3.Trace = "0123456789abcdef"
	v3.Hash = eventHash(v3)
	// In v4 the same event, in a log whose tables already hold its actor (as
	// entry 1) and its detail (entry 0) but not its record, refers to the
	// two and defines the third. Its hash is v3's. v5 stores 8 bytes of
	// PrevHash where v4 stored 32, and v6 none, with a MAC of fixed length
	// (v6's is 32 bytes); v7 is v6 with a vcrypto.TagSize-byte tag. v8, as
	// every event a log writes, is v7 with the time 1.5 ms after its
	// predecessor's, the two words and the trace's shape in one byte and the
	// minted trace ID's 8 bytes with no length. Each layout is read as the
	// 3rd event of a chain whose 2nd event hashed to goldenHash(0x10), and
	// each is the same event, Hash and tag included.
	v6 := v3
	mac := goldenHash(0xa0)
	v6.MAC = mac[:]
	v7 := v3
	v7.MAC = mac[:vcrypto.TagSize]
	nums := [numSyms]int{symActor: 1, symRecord: -1, symDetail: 0}
	tables := [numSyms][]string{symActor: {"dr-b", "dr-a"}, symRecord: {"p0-enc-0"}, symDetail: {"fix dose"}}
	at := ev.Timestamp.UnixNano()
	before := int64(goldenPrevTime) // the 2nd event's time
	// reader reads an event as the seq-th after the event whose Hash is prev,
	// stamped prevTime, with the tables holding tables's values; fold, when
	// set, is a folded event read first, as event seq-1, after goldenHash(0x10).
	reader := func(seq uint64, prev [32]byte, prevTime int64, tables [numSyms][]string, fold func(*chainReader) error) func([]byte) (any, error) {
		return func(b []byte) (any, error) {
			cr := newChainReader(noKey, symbolsOf(tables))
			cr.seq, cr.prev, cr.prevTime = seq, prev, prevTime
			if fold != nil {
				cr.seq, cr.prev = seq-1, goldenHash(0x10)
				if err := fold(cr); err != nil {
					return nil, err
				}
			}
			e, err := cr.next(nil, b)
			if err != nil {
				return nil, err
			}
			return e.owned(), nil
		}
	}
	readAt3 := reader(3, goldenHash(0x10), before, tables, nil)

	// The chain's first event counts its time from 0, and writes out every
	// value it carries.
	first := v7
	first.Seq, first.Action, first.Version, first.Detail, first.PrevHash = 0, ActionRead, 1, "", [32]byte{}
	first.Hash = eventHash(first)
	// After a folded create, stamped with its entry's version time 2 s
	// before, the event counts from that time and follows that event's hash.
	host := Event{Actor: "dr-b", Action: ActionCreate, Record: "p0-enc-0", Version: 1, Outcome: OutcomeAllowed, Timestamp: time.Unix(0, at-2_000_000_000).UTC()}
	folded := host
	folded.Seq, folded.Detail, folded.Trace, folded.PrevHash, folded.MAC = 2, "fix dose", "", goldenHash(0x10), mac[16:]
	folded.Hash = eventHash(folded)
	readFolded := func(cr *chainReader) error {
		_, err := cr.next(&host, appendFold(nil, folded, [numSyms]int{symDetail: 0}))
		return err
	}
	afterFold := v7
	afterFold.PrevHash = folded.Hash
	afterFold.Hash = eventHash(afterFold)
	// A clock stepped back 250 µs: a negative delta.
	later := before + 2*1_500_000 + 250_000
	// An action and an outcome no vocabulary holds, and a trace that is no
	// minted ID, each written out.
	odd := v7
	odd.Action, odd.Outcome, odd.Trace = "unlisted", "odd", "trace-1"
	odd.Hash = eventHash(odd)
	frame.CheckGolden(t,
		frame.Golden{
			Name:    "audit event v8",
			Hex:     goldenEventV8,
			Encode:  func() []byte { return encodeEvent(v7, nums, before) },
			Decode:  readAt3,
			Want:    v7,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v8, the chain's first",
			Hex: "08aab496a1bfacdd832113010864722d61011070312d656e632d3001000123456789abcdef" +
				"a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
			Encode:  func() []byte { return encodeEvent(first, [numSyms]int{-1, -1, -1}, 0) },
			Decode:  reader(0, [32]byte{}, 0, [numSyms][]string{}, nil),
			Want:    first,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v8 after a folded event",
			Hex: "0880d0acf30e1b03011070312d656e632d3002020123456789abcdefa0a1a2a3a4a5a6a7a8a9" +
				"aaabacadaeaf",
			Encode:  func() []byte { return encodeEvent(v7, nums, host.Timestamp.UnixNano()) },
			Decode:  reader(3, [32]byte{}, 0, tables, readFolded),
			Want:    afterFold,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v8 after a clock step back",
			Hex: "08dfcfd5011b03011070312d656e632d3002020123456789abcdefa0a1a2a3a4a5a6a7a8a9aaab" +
				"acadaeaf",
			Encode:  func() []byte { return encodeEvent(v7, nums, later) },
			Decode:  reader(3, goldenHash(0x10), later, tables, nil),
			Want:    v7,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v8 with words and trace written out",
			Hex: "08c08db7010010756e6c6973746564066f646403011070312d656e632d3002020e74726163652d31" +
				"a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
			Encode:  func() []byte { return encodeEvent(odd, nums, before) },
			Decode:  readAt3,
			Want:    odd,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "audit event v7 (read only)",
			Hex:     goldenEventV7,
			Encode:  func() []byte { return encodeV7Event(v7, nums) },
			Decode:  readAt3,
			Want:    v7,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "audit event v6 (read only)",
			Hex:     goldenEventV6,
			Encode:  func() []byte { return encodeV6Event(v6, nums) },
			Decode:  readAt3,
			Want:    v6,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v5 (read only)",
			Hex: "051083bab1fa12cd150303011070312d656e632d30020102110123456789abcdef1011121314151617" +
				"04a1a2a3a4",
			Decode:  readAt3,
			Want:    v3,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v4 (read only)",
			Hex: "041083bab1fa12cd150303011070312d656e632d30020102110123456789abcdef1011121314151617" +
				"18191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f04a1a2a3a4",
			Decode:  readAt3,
			Want:    v3,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v3 (read only)",
			Hex: "031083bab1fa12cd150864722d61031070312d656e632d3002011066697820646f7365110123456789abcdef1011121314" +
				"15161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f04a1a2a3a4",
			Decode:  readAt3,
			Want:    v3,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v2 (legacy, read only)",
			Hex: "000200000000000000031083bab1fa12cd150000000464722d6100000007636f72726563740000000870312d656e632d" +
				"30000000000000000200000007616c6c6f7765640000000866697820646f73650000000774726163652d311011121314" +
				"15161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f404142434445464748494a4b4c4d4e4f5051525354" +
				"55565758595a5b5c5d5e5f00000004a1a2a3a4",
			Decode: func(b []byte) (any, error) {
				var e Event
				_, _, err := parseEvent(&e, b, newSymbols(), 0)
				return e, err
			},
			Want:    ev,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v8 and v7 tag input",
			Hex: "6d65647661756c742f61756469742d6576656e742d6d61632f76370000000000000000031083bab1fa12cd150000" +
				"000464722d6100000007636f72726563740000000870312d656e632d3000000007616c6c6f7765640000000866697820" +
				"646f73650000000774726163652d3100000000000000021011121314151617",
			Encode: func() []byte { return macInput(ev, codecVersion) },
		},
		frame.Golden{
			Name: "audit event v6 MAC input",
			Hex: "6d65647661756c742f61756469742d6576656e742d6d61632f76360000000000000000031083bab1fa12cd150000" +
				"000464722d6100000007636f72726563740000000870312d656e632d3000000007616c6c6f7765640000000866697820" +
				"646f73650000000774726163652d3100000000000000021011121314151617",
			Encode: func() []byte { return macInput(ev, codecV6) },
		},
		frame.Golden{
			Name: "audit event v5 MAC input",
			Hex: "6d65647661756c742f61756469742d6576656e742d6d61632f76350000000000000000031083bab1fa12cd150000" +
				"000464722d6100000007636f72726563740000000870312d656e632d3000000007616c6c6f7765640000000866697820" +
				"646f73650000000774726163652d3100000000000000021011121314151617",
			Encode: func() []byte { return macInput(ev, codecV5) },
		},
		frame.Golden{
			Name:   "audit event hash domain",
			Hex:    "2056879974276f0be75eae62cc9a4ed30ed29da9eb01e67f6d23378dfed4f744",
			Encode: func() []byte { h := eventHash(ev); return h[:] },
		},
		frame.Golden{
			Name: "audit checkpoint signing bytes",
			Hex: "6d65647661756c742f61756469742d636865636b706f696e742f7631000000000000000007404142434445464748494a" +
				"4b4c4d4e4f505152535455565758595a5b5c5d5e5f1083bab1fa12cd15",
			Encode: func() []byte { return checkpointBytes(7, goldenHash(0x40), ev.Timestamp) },
		},
	)
}

// goldenEventV8, goldenEventV7 and goldenEventV6 are TestGoldenEvent's v8,
// v7 and v6 events, which FuzzDecodeEvent also seeds; the v8 one follows an
// event stamped goldenPrevTime.
const goldenEventV8 = "08c08db7011b03011070312d656e632d3002020123456789abcdefa0a1a2a3a4a5a6a7a8a9aaabac" +
	"adaeaf"

const goldenPrevTime = 1190000000123456789 - 1_500_000

const goldenEventV7 = "071083bab1fa12cd150303011070312d656e632d30020102110123456789abcdefa0a1a2a3a4a5a6a7" +
	"a8a9aaabacadaeaf"

const goldenEventV6 = "061083bab1fa12cd150303011070312d656e632d30020102110123456789abcdefa0a1a2a3a4a5a6a7" +
	"a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"

// BenchmarkAblationCodecAuditEvent is the audit-event case of the root
// BenchmarkAblationCodec (the encoder is unexported, so it lives here): one
// event encoding plus its hash-domain bytes, as every audited operation pays.
func BenchmarkAblationCodecAuditEvent(b *testing.B) {
	ev := Event{
		Seq: 3, Timestamp: time.Unix(0, 1190000000123456789).UTC(), Actor: "dr-a",
		Action: ActionCorrect, Record: "p1-enc-0", Version: 2, Outcome: OutcomeAllowed,
		Detail: "fix dose", Trace: "0123456789abcdef", MAC: make([]byte, vcrypto.TagSize),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Hash = eventHash(ev)
		encodeEvent(ev, [numSyms]int{symActor: 3, symRecord: 200, symDetail: 1}, ev.Timestamp.UnixNano()-1_500_000)
	}
}
