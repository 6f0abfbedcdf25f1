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

// TestGoldenEvent pins the persisted v7 event layout, the legacy v6, v5, v4,
// v3 and v2 layouts it still reads, and the byte strings the chain hashes,
// the v7 tag and the v6 and v5 MACs cover and checkpoints sign.
func TestGoldenEvent(t *testing.T) {
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
	// (v6's is 32 bytes); v7 is v6 with a vcrypto.TagSize-byte tag, as every
	// event a log writes. Each layout is read as the 3rd event of a chain
	// whose 2nd event hashed to goldenHash(0x10), and each is the same event,
	// Hash included.
	v6 := v3
	mac := goldenHash(0xa0)
	v6.MAC = mac[:]
	v7 := v3
	v7.MAC = mac[:vcrypto.TagSize]
	nums := [numSyms]int{symActor: 1, symRecord: -1, symDetail: 0}
	tables := [numSyms][]string{symActor: {"dr-b", "dr-a"}, symRecord: {"p0-enc-0"}, symDetail: {"fix dose"}}
	readAt3 := func(b []byte) (any, error) {
		cr := newChainReader(noKey, symbolsOf(tables))
		cr.seq, cr.prev = 3, goldenHash(0x10)
		return cr.next(nil, b)
	}
	frame.CheckGolden(t,
		frame.Golden{
			Name:    "audit event v7",
			Hex:     goldenEventV7,
			Encode:  func() []byte { return encodeEvent(v7, nums) },
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
				e, _, _, err := parseEvent(b, newSymbols())
				return e, err
			},
			Want:    ev,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "audit event v7 tag input",
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

// goldenEventV7 and goldenEventV6 are TestGoldenEvent's v7 and v6 events,
// which FuzzDecodeEvent also seeds.
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
		encodeEvent(ev, [numSyms]int{symActor: 3, symRecord: 200, symDetail: 1})
	}
}
