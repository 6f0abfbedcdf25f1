package provenance

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

// goldenTracker is TestGoldenEvent's custody event, and the tracker that
// stores it: its signing key (the event's own signer), its MAC, and the
// place in its record's chain that the next event takes.
func goldenTracker() (ev Event, own vcrypto.PublicKey, mac *vcrypto.KeyedMAC, place func(string) (uint64, [32]byte)) {
	ev = Event{
		Record: "p1-enc-0", Index: 2, Type: EventMigratedOut,
		Timestamp: time.Unix(0, 1190000000123456789).UTC(), Actor: "arch-1",
		System: "vault-a", Peer: "vault-b", ContentHash: goldenHash(0x01),
		PrevHash: goldenHash(0x30), Hash: goldenHash(0x60),
		SignerKey: vcrypto.PublicKey{0xb1, 0xb2, 0xb3}, Signature: []byte{0xc1, 0xc2},
	}
	mac = vcrypto.NewKeyedMAC(vcrypto.Key(goldenHash(0x90)))
	return ev, ev.SignerKey, mac, func(string) (uint64, [32]byte) { return 2, goldenHash(0x30) }
}

// goldenStoredV2 is goldenTracker's event in the decode-only stored layout v2.
const goldenStoredV2 = "021070312d656e632d30041083bab1fa12cd150c617263682d310e7661756c742d610e7661756c742d620102030405" +
	"060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f200002c1c2"

// TestGoldenEvent pins the custody-event transfer layout (it travels inside
// export bundles and backups, and older mediums hold it), the stored layouts a
// tracker writes (v3) and has written (v2, now decode-only), and the hash
// domain MACs and signatures cover.
func TestGoldenEvent(t *testing.T) {
	ev, own, mac, place := goldenTracker()
	// The stored layouts leave out Index, PrevHash and Hash (the reader's
	// place in the chain gives the first two, and hashing the third) and the
	// signer key when it is the tracker's own; v3 leaves out the tracker's
	// own signature too, and carries a MAC over the hash and the stored signer
	// fields instead.
	stored := ev
	stored.Hash = eventHash(stored)
	decode := func(b []byte) (any, error) { return decodeStored(b, own, mac, place) }
	unsigned := stored
	unsigned.Signature = nil
	foreign := stored
	foreign.SignerKey, foreign.Signature = vcrypto.PublicKey{0xd1, 0xd2}, []byte{0xe1}
	frame.CheckGolden(t,
		frame.Golden{
			Name: "provenance stored event v3",
			Hex: "0301a0b10f01897cb2314552fa11e55d7221279f9ede72eac316860be06f528a7f1070312d656e632d30041083bab1fa" +
				"12cd150c617263682d310e7661756c742d610e7661756c742d620102030405060708090a0b0c0d0e0f10111213141516" +
				"1718191a1b1c1d1e1f200000",
			Encode:  func() []byte { return sealStored(encodeStored(stored, own), mac, stored.Hash) },
			Decode:  decode,
			Want:    unsigned,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "provenance stored event v3, foreign signer",
			Hex: "030fa09aec0868b0cd72e62a10c8c09bb0541bc3591ec4180effc72b3cd2c94bae1070312d656e632d30041083bab1fa" +
				"12cd150c617263682d310e7661756c742d610e7661756c742d620102030405060708090a0b0c0d0e0f10111213141516" +
				"1718191a1b1c1d1e1f2002d1d201e1",
			Encode:  func() []byte { return sealStored(encodeStored(foreign, own), mac, foreign.Hash) },
			Decode:  decode,
			Want:    foreign,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "provenance stored event v2",
			Hex:     goldenStoredV2,
			Decode:  decode,
			Want:    stored,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "provenance event",
			Hex: "00010000000870312d656e632d3000000000000000020000000c6d696772617465642d6f75741083bab1fa12cd150000" +
				"0006617263682d31000000077661756c742d61000000077661756c742d620102030405060708090a0b0c0d0e0f101112" +
				"131415161718191a1b1c1d1e1f20303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f6061" +
				"62636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f00000003b1b2b300000002c1c2",
			Encode:  func() []byte { return EncodeEvent(ev) },
			Decode:  func(b []byte) (any, error) { return DecodeEvent(b) },
			Want:    ev,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:   "provenance event hash domain",
			Hex:    "28409c18a572a23fcc3920f4e58c0dbbb4ddc8d0582056505aee00fc02ab4c68",
			Encode: func() []byte { h := eventHash(ev); return h[:] },
		},
	)
}
