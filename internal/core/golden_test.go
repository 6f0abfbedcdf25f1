package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	mrand "math/rand"
	"reflect"
	"testing"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/frame"
	"medvault/internal/provenance"
	"medvault/internal/vcrypto"
)

var goldenTime = time.Unix(0, 1190000000123456789).UTC()

func goldenHash(seed byte) (h [32]byte) {
	for i := range h {
		h[i] = seed + byte(i)
	}
	return h
}

// goldenMetaSnap is a real v3 meta.snap written by the commit that introduced
// these vectors: one record with a correction, one shredded record, one
// legal hold. Its keystore and index sections are sealed with that run's
// nonces, so the vectors pin the layout by decode + re-encode.
const goldenMetaSnap = "4d564d5300030000000000000003000000020000000870312d656e632d3000000008636c696e6963616c000000027031" +
	"0018bfa7bb37dda000000000020000000864722d686f757365000000000000000100000000000000000000000093a508" +
	"927b06b6843e4ddb7d70e56666d8a4c7397aad47786e410acb7a0b7ef518bfa7bb37dda0000000000000000000000000" +
	"0864722d686f75736500000000000000020000000000000000000000f595e975e18d923d11255a3a8c7a618231ed8869" +
	"33e8587d0fbe1a630c7d20e1e918bfa7c93024f80000000000000000020000000870322d656e632d3000000008636c69" +
	"6e6963616c0000000270320118bfa7bb37dda000000000010000000864722d686f757365000000000000000100000000" +
	"000000000000007c0c24d2be22a50b85e20099a23a8e1fae6443bd29ef968b790ab4aadccf1be5bf18bfa7bb37dda000" +
	"0000000000000001000000664d564b530001000000010000000870312d656e632d300000003ce0982f67aecfed2755a0" +
	"4117d981d90683fc7be82254f53169a64a396ddcc71b24fc5b457442a4a21206dc9595df4a9eb35fcfd4dc0955f471d2" +
	"57fa000000010000000870322d656e632d300000006400000003fbfef4233fbfb49db01d7c6a4d31ae0c329076b8e2b0" +
	"0c135c01716d6d2abf27e5ec2fcf5a95455eccf7d08446d0b9113608ee7777f81cbd99fcb41f981dbf161dbd54b3e760" +
	"273bd13e98bfc0eeab0efc185efe23236b81f5b3c10e87e1f681000002664d5653580001000000030000004030373832" +
	"646638653430626661336362333731643063313735396239303966316464396562386439666565616161633866333263" +
	"6631663232393161373766620000002cd626c8641842e28257691bf65962e8b2254cfaf2114d321cf9063be5f41744d7" +
	"437cc6b0602d453b945a4054000000403236303336353737383836366636363963636636613835633634396535343265" +
	"65366134336539613737373336666263373165666330613662366665626634330000002cb355104ae473bc029680c8f2" +
	"86d7a15b6afe93634f705a8a2f5a4da1da0336bfba07e8fab24a0a4a13f5ffa200000040336530386165633133356331" +
	"663863346234393761313163626230363338336266313433396238363731303132303530343663393431363362306663" +
	"356435660000002c2d330c4daa82dd26c047b649286228a2fac1d13138b6fc8ab41b3594255d0d99076795d62cd74c0a" +
	"5e614a1d000000fc24bc7d457aef8247ecc84280aebcc3b4e1616c914eb64bb219f9d47a68a0398e9a7226276d092fd5" +
	"3c675bda5b97ba0d66b31c5f4c287311da44ddda46b04ae9ff284f8b2692f5fce272a0a158ac71327db80a09fd278e37" +
	"55a09abb4f1dbc5d8a5ebe62a9756f619c05cc5accea6a0177851b91861e51bf3f00d41b39a439417c6850b5a8d8fc53" +
	"e40a3a000a07f044088f1012d41db661b05c78bda29cb3a1c2c6741100cfc9c2c5b0163e519af3e13543cad024ba1118" +
	"f00c7226357fe282f0073eb571514bb5e519f7ebf421d7a328db3a5685d28f44a6ac178cadd11d41343b7244fe3c31cf" +
	"16dc2644e8f806f8a0cd91124b3bad2825199677000000010000000870312d656e632d300000000a6c69746967617469" +
	"6f6e18bfa7c93024f800"

// goldenMetaSnapV4 is goldenMetaSnap as the v4 encoder writes it: the same
// records, sealed sections and holds, each version stored compactly.
const goldenMetaSnapV4 = "4d564d5300040000000000000003000000020000000870312d656e632d3000000008636c696e6963616c000000027031" +
	"0018bfa7bb37dda00000000002000093a508927b06b6843e4ddb7d70e56666d8a4c7397aad47786e410acb7a0b7ef518" +
	"bfa7bb37dda0000864722d686f7573650000f50195e975e18d923d11255a3a8c7a618231ed886933e8587d0fbe1a630c" +
	"7d20e1e918bfa7c93024f8000864722d686f757365020000000870322d656e632d3000000008636c696e6963616c0000" +
	"000270320118bfa7bb37dda00000000001007c0c24d2be22a50b85e20099a23a8e1fae6443bd29ef968b790ab4aadccf" +
	"1be5bf18bfa7bb37dda0000864722d686f75736501000000664d564b530001000000010000000870312d656e632d3000" +
	"00003ce0982f67aecfed2755a04117d981d90683fc7be82254f53169a64a396ddcc71b24fc5b457442a4a21206dc9595" +
	"df4a9eb35fcfd4dc0955f471d257fa000000010000000870322d656e632d300000006400000003fbfef4233fbfb49db0" +
	"1d7c6a4d31ae0c329076b8e2b00c135c01716d6d2abf27e5ec2fcf5a95455eccf7d08446d0b9113608ee7777f81cbd99" +
	"fcb41f981dbf161dbd54b3e760273bd13e98bfc0eeab0efc185efe23236b81f5b3c10e87e1f681000002664d56535800" +
	"010000000300000040303738326466386534306266613363623337316430633137353962393039663164643965623864" +
	"396665656161616338663332636631663232393161373766620000002cd626c8641842e28257691bf65962e8b2254cfa" +
	"f2114d321cf9063be5f41744d7437cc6b0602d453b945a40540000004032363033363537373838363666363639636366" +
	"366138356336343965353432656536613433653961373737333666626337316566633061366236666562663433000000" +
	"2cb355104ae473bc029680c8f286d7a15b6afe93634f705a8a2f5a4da1da0336bfba07e8fab24a0a4a13f5ffa2000000" +
	"403365303861656331333563316638633462343937613131636262303633383362663134333962383637313031323035" +
	"30343663393431363362306663356435660000002c2d330c4daa82dd26c047b649286228a2fac1d13138b6fc8ab41b35" +
	"94255d0d99076795d62cd74c0a5e614a1d000000fc24bc7d457aef8247ecc84280aebcc3b4e1616c914eb64bb219f9d4" +
	"7a68a0398e9a7226276d092fd53c675bda5b97ba0d66b31c5f4c287311da44ddda46b04ae9ff284f8b2692f5fce272a0" +
	"a158ac71327db80a09fd278e3755a09abb4f1dbc5d8a5ebe62a9756f619c05cc5accea6a0177851b91861e51bf3f00d4" +
	"1b39a439417c6850b5a8d8fc53e40a3a000a07f044088f1012d41db661b05c78bda29cb3a1c2c6741100cfc9c2c5b016" +
	"3e519af3e13543cad024ba1118f00c7226357fe282f0073eb571514bb5e519f7ebf421d7a328db3a5685d28f44a6ac17" +
	"8cadd11d41343b7244fe3c31cf16dc2644e8f806f8a0cd91124b3bad2825199677000000010000000870312d656e632d" +
	"300000000a6c697469676174696f6e18bfa7c93024f800"

// goldenWALVersion is the version the WAL vectors and the byte budget carry:
// a correction (number 2) unless the caller renumbers it.
var goldenWALVersion = Version{
	Number: 2, Author: "dr-a", Timestamp: goldenTime,
	Ref: blockstore.Ref{Segment: 3, Offset: 4096}, CtHash: goldenHash(0x20),
}

// goldenCreate and goldenCorrection are the golden record's two
// version-append entries as commit builds them: each carries a 256-byte
// ciphertext, whose hash is its version's; the create carries a 40-byte
// AES-KW wrapped DEK, and the correction carries no DEK. Neither carries the
// record's identity, which is in the seal. Refs are assigned at commit, not
// logged.
func goldenCreate() walEntry {
	e := legacyCreate()
	e.ct, e.wrappedDEK = goldenCiphertext(), goldenBytes(40)
	e.ver.Ref, e.ver.CtHash = blockstore.Ref{}, vcrypto.Hash(e.ct)
	return e
}

// parentCreate is goldenCreate as the parent binary's 'p' and 'i' creates
// decode: with a 60-byte AES-GCM wrapped DEK.
func parentCreate() walEntry {
	e := goldenCreate()
	e.wrappedDEK = goldenBytes(60)
	return e
}

// goldenIdentity is the golden record's category, MRN and created time,
// which the parent binary logged in the clear in its creates.
var goldenIdentity = ehr.Record{Category: ehr.CategoryLab, MRN: "p1", CreatedAt: goldenTime.Add(-time.Hour)}

// parentEncode is e as the parent binary logged it: a create was a 'p' or
// 'i' entry with its record's identity in the clear ahead of its DEK, a
// 60-byte AES-GCM blob (e's own DEK, zero-padded to that size); a later
// version is as e.encode writes it.
func parentEncode(e walEntry, identity ehr.Record) []byte {
	if e.kind != 'V' || e.ver.Number != 1 {
		return e.encode()
	}
	b := []byte{'i'}
	if e.custody {
		b[0] = 'p'
	}
	b = frame.AppendVarStr(b, e.id)
	b = frame.AppendUvarint(b, 1)
	b = frame.AppendTime(b, e.ver.Timestamp)
	b = frame.AppendVarStr(b, e.ver.Author)
	b = frame.AppendWord(b, string(identity.Category), ehr.CategoryWords)
	b = frame.AppendVarStr(b, identity.MRN)
	b = frame.AppendTime(b, identity.CreatedAt)
	gcm := make([]byte, vcrypto.KeySize+vcrypto.Overhead)
	copy(gcm, e.wrappedDEK)
	b = frame.AppendVarBytes(b, gcm)
	return frame.AppendVarBytes(b, e.ct)
}

func goldenCorrection() walEntry {
	e := goldenCreate()
	e.ver.Number, e.wrappedDEK = 2, nil
	return e
}

// goldenCiphertext is 256 bytes counting up from 0x40.
func goldenCiphertext() []byte {
	b := make([]byte, 256)
	for i := range b {
		b[i] = 0x40 + byte(i)
	}
	return b
}

// legacyCreate and legacyCorrection are the same two versions as the legacy
// 'c' and 'v' layouts held them: a Ref into the block store and the hash.
// The create's identity (goldenIdentity) is read past, not decoded.
func legacyCreate() walEntry {
	ver := goldenWALVersion
	ver.Number = 1
	return walEntry{kind: 'V', id: "p1-enc-0", ver: ver, wrappedDEK: goldenBytes(60)}
}

func legacyCorrection() walEntry {
	e := legacyCreate()
	e.ver, e.wrappedDEK = goldenWALVersion, nil
	return e
}

// The legacy 'c' vectors and the parent's 'p' create, decode-only; the byte
// budget weighs them.
const (
	goldenLegacyCCreate = "630870312d656e632d3001038020202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f1083" +
		"bab1fa12cd150464722d61020270311083b76bc95a2d153cd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7" +
		"e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a0b"
	goldenLegacyCCorrection = "630870312d656e632d3002038020202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f1083" +
		"bab1fa12cd150464722d61"
	goldenParentPCreate = "700870312d656e632d30011083bab1fa12cd150464722d61020270311083b76bc95a2d153cd0d1d2d3d4d5d6d7d8d9da" +
		"dbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a" +
		"0b8002404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c" +
		"6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c" +
		"9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcc" +
		"cdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfc" +
		"fdfeff000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c" +
		"2d2e2f303132333435363738393a3b3c3d3e3f"
)

// withCustody is e as a put or correction logs it: carrying its custody fact.
func withCustody(e walEntry) walEntry {
	e.custody = true
	return e
}

// goldenShred is the golden record's shred entry as ShredCtx logs it.
func goldenShred() walEntry {
	return walEntry{kind: 'S', custody: true, id: "p1-enc-0", ver: Version{Author: "arch-a", Timestamp: goldenTime}}
}

// goldenBytes is n bytes counting up from 0xd0.
func goldenBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0xd0 + byte(i)
	}
	return b
}

// goldenAuditEntry is a standalone audit event's meta.wal entry: the v8
// event "dr-a read p1-enc-0 v1, allowed", untraced, 1 ms after its
// predecessor, with the tag a0..af. goldenAuditEntryV7 is the same event as
// the parent wrote it, in v7.
const (
	goldenAuditEntry = "08" + "80897a" + "12" + "010864722d61" + "011070312d656e632d30" + "01" + "00" + "00" +
		"a0a1a2a3a4a5a6a7a8a9aaabacadaeaf"
	goldenAuditEntryV7 = "07" + "1083bab1fa12cd15" + "010864722d61" + "02" + "011070312d656e632d30" + "01" + "01" + "00" + "00" +
		"a0a1a2a3a4a5a6a7a8a9aaabacadaeaf"
)

// goldenFold is the fold of a create's or correction's allowed event: its
// detail the log's detail symbol 0, its trace 0af7651916cd43dd and its tag
// b0..bf.
const goldenFold = "02" + "110af7651916cd43dd" + "b0b1b2b3b4b5b6b7b8b9babbbcbdbebf"

// goldenFolded is e, a 'P' or 'p' entry, with goldenFold folded in.
func goldenFolded(e walEntry) walEntry {
	e.event, _ = hex.DecodeString(goldenFold)
	return e
}

// TestGoldenWALEntries pins the metadata WAL entry layouts and the two byte
// strings core hashes and signs. The legacy 'V', 'c' and 'v' layouts, and
// the 'p' and 'i' creates, are decode-only: no code writes them, and a
// meta.wal that holds them must still replay.
func TestGoldenWALEntries(t *testing.T) {
	decode := func(b []byte) (any, error) { return decodeWALEntry(b) }
	legacy := walEntry{kind: 'V', id: "p1-enc-0", ver: goldenWALVersion, wrappedDEK: []byte{0xd1, 0xd2, 0xd3}}
	create, correction := goldenCreate(), goldenCorrection()
	// A decoded correction holds only what its entry stores.
	stored := walEntry{kind: 'V', id: correction.id, ver: correction.ver, ct: correction.ct}
	lCreate := legacyCreate()
	lStored := walEntry{kind: 'V', id: lCreate.id, ver: legacyCorrection().ver}
	sEntry := walEntry{kind: 'S', id: "p1-enc-0"}
	hEntry := walEntry{kind: 'H', id: "p1-enc-0", reason: "litigation", placed: goldenTime}
	rEntry := walEntry{kind: 'R', id: "p1-enc-0"}
	shred := goldenShred()
	pCreate, pCorrection := withCustody(create), withCustody(correction)
	fCreate, fCorrection := goldenFolded(pCreate), goldenFolded(pCorrection)
	aEntry, aEntryV7 := walEntry{kind: 'A'}, walEntry{kind: 'A'}
	aEntry.event, _ = hex.DecodeString(goldenAuditEntry)
	aEntryV7.event, _ = hex.DecodeString(goldenAuditEntryV7)
	goldenCt := "8002404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c" +
		"6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c" +
		"9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcc" +
		"cdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfc" +
		"fdfeff000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c" +
		"2d2e2f303132333435363738393a3b3c3d3e3f"
	frame.CheckGolden(t,
		frame.Golden{
			Name: "WAL V entry (legacy, decode-only)",
			Hex: "560000000870312d656e632d30000000036c61620000000270310000000464722d610000000000000002000000030000" +
				"000000001000202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f1083bab1fa12cd151083" +
				"b76bc95a2d1500000003d1d2d3",
			Decode:  decode,
			Want:    legacy,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "WAL v entry, create",
			Hex: "760870312d656e632d3001038020202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f1083" +
				"bab1fa12cd150464722d61020270311083b76bc95a2d153cd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7" +
				"e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a0b",
			Decode:  decode,
			Want:    lCreate,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "WAL v entry, correction",
			Hex: "760870312d656e632d3002038020202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f1083" +
				"bab1fa12cd150464722d61",
			Decode:  decode,
			Want:    lStored,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "WAL c entry, create",
			Hex:     goldenLegacyCCreate,
			Decode:  decode,
			Want:    withCustody(lCreate),
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "WAL c entry, correction",
			Hex:     goldenLegacyCCorrection,
			Decode:  decode,
			Want:    withCustody(lStored),
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "WAL i entry, create (legacy, decode-only)",
			Hex: "690870312d656e632d30011083bab1fa12cd150464722d61020270311083b76bc95a2d153cd0d1d2d3d4d5d6d7d8d9da" +
				"dbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a" +
				"0b8002404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c" +
				"6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c" +
				"9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcc" +
				"cdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfc" +
				"fdfeff000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c" +
				"2d2e2f303132333435363738393a3b3c3d3e3f",
			Decode:  decode,
			Want:    parentCreate(),
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "WAL i entry, correction",
			Hex: "690870312d656e632d30021083bab1fa12cd150464722d618002404142434445464748494a4b4c4d4e4f505152535455" +
				"565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485" +
				"868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5" +
				"b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5" +
				"e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a0b0c0d0e0f101112131415" +
				"161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f",
			Encode:  correction.encode,
			Decode:  decode,
			Want:    stored,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "WAL p entry, create (legacy, decode-only)",
			Hex:     goldenParentPCreate,
			Decode:  decode,
			Want:    withCustody(parentCreate()),
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "WAL I entry",
			Hex: "490870312d656e632d30011083bab1fa12cd150464722d6128d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6" +
				"e7e8e9eaebecedeeeff0f1f2f3f4f5f6f78002404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c" +
				"5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c" +
				"8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbc" +
				"bdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebec" +
				"edeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c" +
				"1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f",
			Encode:  create.encode,
			Decode:  decode,
			Want:    create,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "WAL P entry",
			Hex: "500870312d656e632d30011083bab1fa12cd150464722d6128d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6" +
				"e7e8e9eaebecedeeeff0f1f2f3f4f5f6f78002404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c" +
				"5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c" +
				"8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbc" +
				"bdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebec" +
				"edeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c" +
				"1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f",
			Encode:  pCreate.encode,
			Decode:  decode,
			Want:    pCreate,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "WAL p entry, correction",
			Hex: "700870312d656e632d30021083bab1fa12cd150464722d618002404142434445464748494a4b4c4d4e4f505152535455" +
				"565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485" +
				"868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5" +
				"b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5" +
				"e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a0b0c0d0e0f101112131415" +
				"161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f",
			Encode:  pCorrection.encode,
			Decode:  decode,
			Want:    withCustody(stored),
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			// The payload is the audit package's v8 event, whose own golden
			// vectors refuse its prefixes: decoding hands it on unparsed.
			Name:   "WAL 8 entry (a standalone audit event)",
			Hex:    goldenAuditEntry,
			Encode: aEntry.encode,
		},
		frame.Golden{
			// A v7 event, which the parent wrote, is handed on as is too.
			Name:   "WAL 7 entry (a standalone audit event, decode-only)",
			Hex:    goldenAuditEntryV7,
			Encode: aEntryV7.encode,
		},
		frame.Golden{
			Name: "WAL P entry, folded",
			Hex: "500870312d656e632d30011083bab1fa12cd150464722d6128d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6" +
				"e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7" + "00" + goldenFold + goldenCt,
			Encode:  fCreate.encode,
			Decode:  decode,
			Want:    fCreate,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "WAL p entry, folded correction",
			Hex:     "700870312d656e632d30021083bab1fa12cd150464722d61" + "00" + goldenFold + goldenCt,
			Encode:  fCorrection.encode,
			Decode:  decode,
			Want:    goldenFolded(withCustody(stored)),
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "WAL s entry",
			Hex:     "730870312d656e632d3006617263682d611083bab1fa12cd15",
			Encode:  shred.encode,
			Decode:  decode,
			Want:    shred,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "WAL S entry",
			Hex:     "530000000870312d656e632d30",
			Encode:  sEntry.encode,
			Decode:  decode,
			Want:    sEntry,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "WAL H entry",
			Hex:     "480000000870312d656e632d300000000a6c697469676174696f6e1083bab1fa12cd15",
			Encode:  hEntry.encode,
			Decode:  decode,
			Want:    hEntry,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "WAL R entry",
			Hex:     "520000000870312d656e632d30",
			Encode:  rEntry.encode,
			Decode:  decode,
			Want:    rEntry,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "merkle leaf data",
			Hex: "7661756c742f6c6561662f7631000000000870312d656e632d300000000000000002202122232425262728292a2b2c2d" +
				"2e2f303132333435363738393a3b3c3d3e3f",
			Encode: func() []byte { return leafData("p1-enc-0", 2, goldenHash(0x20)) },
		},
		frame.Golden{
			Name:   "purpose-bound signing bytes",
			Hex:    "6d65647661756c742f7369672f6261636b75702d6d616e696665737400010203",
			Encode: func() []byte { return signingBytes("backup-manifest", []byte{1, 2, 3}) },
		},
	)
	if got, err := decodeWALEntry(aEntry.event); err != nil || !reflect.DeepEqual(got, aEntry) {
		t.Errorf("WAL 7 entry: decoded %+v, %v; want its payload unparsed", got, err)
	}
}

// TestWALBytesPerEntry is the exact cost on the medium of the golden
// record's create and correction, frames included. A version used to be a
// legacy 'c' entry in meta.wal plus a block store frame holding its
// ciphertext; it is one entry carrying the ciphertext, with no Ref and no
// hash (42 B less per version here). The entry's frame.Var frame is 6 B
// where the frame.Seq frame it replaced was 16 (10 B less). A shred's 's'
// entry carries its actor and time where the legacy 'S' entry (13 B)
// carried neither. With ehr's golden record, filed as lab, sealed in it, an
// entry's ciphertext is the sealed layout's 52 B plus the seal's 28, where an
// older binary sealed its 97-B MVR1 encoding: 45 B less per version, and the
// correction's frame loses a length byte too. The parent's 'p' create also
// carried the record's identity in the clear (12 B here: the category word,
// the MRN "p1" and the created time) and a 60-B AES-GCM wrapped DEK; the 'P'
// entry carries neither the identity nor 20 B of that wrap (32 B less).
func TestWALBytesPerEntry(t *testing.T) {
	seq, block := frame.Seq.Overhead(), frame.Block.Overhead()
	if got := hex.EncodeToString(parentEncode(withCustody(parentCreate()), goldenIdentity)); got != goldenParentPCreate {
		t.Fatalf("parentEncode is not the parent's layout:\n got %s\nwant %s", got, goldenParentPCreate)
	}
	varFramed := func(b []byte) int { return len(frame.Var.Append(nil, 0, b)) }
	parent := func(e walEntry) []byte { return parentEncode(e, goldenIdentity) }
	now := func(e walEntry) []byte { return e.encode() }
	for _, tc := range []struct {
		name                                   string
		legacyHex                              string
		e                                      walEntry
		old, inSeq, va, mvr1, sealed, kw, kwVa int
	}{
		{"create", goldenLegacyCCreate, withCustody(goldenCreate()), 413, 371, 361, 229, 184, 152, 329},
		{"correction", goldenLegacyCCorrection, withCustody(goldenCorrection()), 340, 298, 288, 156, 110, 110, 288},
	} {
		old := seq + len(tc.legacyHex)/2 + block + len(tc.e.ct)
		inSeq := seq + len(parent(tc.e))
		got := varFramed(parent(tc.e))
		t.Logf("%s: %d B as a 'c' entry and a block, %d B as the parent's entry in a Seq frame, %d B in a Var frame", tc.name, old, inSeq, got)
		if old != tc.old || inSeq != tc.inSeq || got != tc.va {
			t.Errorf("%s: %d, %d and %d B; want %d, %d and %d", tc.name, old, inSeq, got, tc.old, tc.inSeq, tc.va)
		}
		if old-inSeq < 40 {
			t.Errorf("%s: the inline ciphertext saves %d B per version, want at least 40", tc.name, old-inSeq)
		}
		rec := ehr.Record{
			ID: tc.e.id, Patient: "Ada L.", MRN: goldenIdentity.MRN, Category: goldenIdentity.Category, Author: tc.e.ver.Author,
			CreatedAt: goldenIdentity.CreatedAt, Title: "Visit", Body: "note text", Codes: []string{"I10", "E11.9"},
		}
		framed := func(encode func(walEntry) []byte, pt []byte) int {
			e := tc.e
			e.ct = make([]byte, len(pt)+vcrypto.Overhead)
			return varFramed(encode(e))
		}
		mvr1, sealed := framed(parent, ehr.Encode(rec)), framed(parent, ehr.EncodeSealed(rec))
		kw, kwVa := framed(now, ehr.EncodeSealed(rec)), varFramed(tc.e.encode())
		t.Logf("%s: %d B sealing the MVR1 encoding, %d B sealing the sealed layout; %d B (%d with the golden ciphertext) as this binary logs it",
			tc.name, mvr1, sealed, kw, kwVa)
		if mvr1 != tc.mvr1 || sealed != tc.sealed || kw != tc.kw || kwVa != tc.kwVa {
			t.Errorf("%s: %d, %d, %d and %d B; want %d, %d, %d and %d", tc.name, mvr1, sealed, kw, kwVa, tc.mvr1, tc.sealed, tc.kw, tc.kwVa)
		}
	}
	if shred := goldenShred(); len(shred.encode()) != 25 {
		t.Errorf("s shred entry: %d B, want 25", len(shred.encode()))
	}
}

// TestDecodeWALEntryRejectsOtherEncodings: a version entry has one encoding,
// so each of these is ErrCorrupt rather than an entry apply would act on.
func TestDecodeWALEntryRejectsOtherEncodings(t *testing.T) {
	create, correction := goldenCreate(), goldenCorrection()
	noDEK := create
	noDEK.wrappedDEK = nil
	zero := correction
	zero.ver.Number = 0
	noCiphertext := correction
	noCiphertext.ct = nil
	// The legacy correction's one-byte segment sits after 'c', the 9-byte
	// ID and the one-byte number.
	legacy, _ := hex.DecodeString(goldenLegacyCCorrection)
	wideSegment := append(frame.AppendUvarint(legacy[:11:11], 1<<32), legacy[12:]...)
	// A DEK between the correction's author and its ciphertext (whose
	// length takes two bytes).
	enc := correction.encode()
	head := enc[: len(enc)-2-len(correction.ct) : len(enc)-2-len(correction.ct)]
	withDEK := frame.AppendVarBytes(frame.AppendVarBytes(head, []byte{1, 2, 3}), correction.ct)
	// A 'P' entry's one-byte number sits after 'P' and the 9-byte ID.
	pCreate := withCustody(create)
	renumbered := pCreate.encode()
	renumbered[10] = 2
	for name, in := range map[string][]byte{
		"a P entry of version 2":           renumbered,
		"a DEK on a correction":            withDEK,
		"a create without a DEK":           noDEK.encode(),
		"version 0":                        zero.encode(),
		"a version without its ciphertext": noCiphertext.encode(),
		"trailing bytes":                   append(correction.encode(), 0),
		"a legacy 33-bit segment":          wideSegment,
	} {
		if e, err := decodeWALEntry(in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded %+v, %v; want ErrCorrupt", name, e, err)
		}
	}
}

// TestGoldenBundle pins the export bundle layout (migration and backup
// payload), which nests the ehr and provenance encodings.
func TestGoldenBundle(t *testing.T) {
	rec := ehr.Record{
		ID: "p1-enc-0", Patient: "Ada L.", MRN: "p1", Category: ehr.CategoryClinical,
		Author: "dr-a", CreatedAt: goldenTime, Title: "Visit", Body: "note text", Codes: []string{"I10"},
	}
	bundle := ExportBundle{
		ID: "p1-enc-0", Category: ehr.CategoryClinical,
		Versions: []ExportedVersion{{
			Record:    rec,
			Version:   Version{Number: 1, Author: "dr-a", Timestamp: goldenTime},
			PlainHash: goldenHash(0x50),
		}},
		Custody: []provenance.Event{{
			Record: "p1-enc-0", Type: provenance.EventCreated, Timestamp: goldenTime, Actor: "dr-a",
			System: "vault-a", ContentHash: goldenHash(0x50), Hash: goldenHash(0x70),
			SignerKey: vcrypto.PublicKey{0xb1, 0xb2}, Signature: []byte{0xc1},
		}},
	}
	frame.CheckGolden(t, frame.Golden{
		Name: "export bundle",
		Hex: "4d5658420000000870312d656e632d3000000008636c696e6963616c000000010000005d4d5652310000000870312d65" +
			"6e632d3000000006416461204c2e00000002703100000008636c696e6963616c0000000464722d611083bab1fa12cd15" +
			"000000055669736974000000096e6f7465207465787400000001000000034931300000000464722d6100000000000000" +
			"011083bab1fa12cd15505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f00000001000000" +
			"ab00010000000870312d656e632d30000000000000000000000007637265617465641083bab1fa12cd15000000046472" +
			"2d61000000077661756c742d6100000000505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e" +
			"6f0000000000000000000000000000000000000000000000000000000000000000707172737475767778797a7b7c7d7e" +
			"7f808182838485868788898a8b8c8d8e8f00000002b1b200000001c1",
		Encode:  func() []byte { return EncodeBundle(bundle) },
		Decode:  func(b []byte) (any, error) { return DecodeBundle(b) },
		Want:    bundle,
		Corrupt: ErrBadBundle,
	})
}

// TestGoldenExportedBundle pins the bytes a vault exports for one record put
// and then corrected, under a fixed master, a virtual clock and a seeded
// random source (DEKs and nonces, hence the ciphertext hashes custody events
// commit to). Ed25519 signatures are deterministic (RFC 8032), so however the
// vault keeps custody events on its own medium, the chain that leaves it in a
// bundle is these bytes. The MVR1 vector is the same export from a vault that
// sealed the canonical encoding: it decodes and its chain verifies, and its
// records are byte for byte the ones this vault exports; only the ciphertext
// hashes its custody events commit to differ. So with the AES-GCM wrap
// vector.
func TestGoldenExportedBundle(t *testing.T) {
	saved := rand.Reader
	rand.Reader = mrand.New(mrand.NewSource(7))
	defer func() { rand.Reader = saved }()
	var master vcrypto.Key
	for i := range master {
		master[i] = byte(i)
	}
	v, err := Open(Config{Name: "vault-golden", Master: master, Clock: clock.NewVirtual(goldenTime)})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	registerStaff(t, v)
	ctx := context.Background()
	rec := ehr.Record{
		ID: "p1-enc-0", Patient: "Ada L.", MRN: "p1", Category: ehr.CategoryClinical,
		Author: "dr-house", CreatedAt: goldenTime, Title: "Visit", Body: "note text",
	}
	if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	rec.Body = "note text, corrected"
	if _, err := v.CorrectCtx(ctx, "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	bundle, err := v.Export("arch-lee", rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) (any, error) { return DecodeBundle(b) }
	frame.CheckGolden(t,
		frame.Golden{
			Name:    "exported bundle, MVR1 seal (decode-only)",
			Hex:     goldenExportedBundleMVR1,
			Decode:  decode,
			Corrupt: ErrBadBundle,
		},
		frame.Golden{
			Name:    "exported bundle, AES-GCM wrapped DEK (decode-only)",
			Hex:     goldenExportedBundleGCMWrap,
			Decode:  decode,
			Corrupt: ErrBadBundle,
		},
		frame.Golden{
			Name: "exported bundle",
			Hex: "4d5658420000000870312d656e632d3000000008636c696e6963616c000000020000005a4d5652310000000870312d65" +
				"6e632d3000000006416461204c2e00000002703100000008636c696e6963616c0000000864722d686f7573651083bab1" +
				"fa12cd15000000055669736974000000096e6f74652074657874000000000000000864722d686f757365000000000000" +
				"00011083bab1fa12cd15218b57459642de2073e74c2e38624762eb1dcdc5504785fa4c1bff0584c3d1ce000000654d56" +
				"52310000000870312d656e632d3000000006416461204c2e00000002703100000008636c696e6963616c000000086472" +
				"2d686f7573651083bab1fa12cd15000000055669736974000000146e6f746520746578742c20636f7272656374656400" +
				"0000000000000864722d686f75736500000000000000021083bab1fa12cd1504f7b0713bd308d8f63e5a746eef4467de" +
				"6f17378f0acbd43d54f14b77ee6cbc000000020000011100010000000870312d656e632d300000000000000000000000" +
				"07637265617465641083bab1fa12cd150000000864722d686f7573650000000c7661756c742d676f6c64656e00000000" +
				"d129c05b20cf32e6c3f9f7f1ccee303d7b4c7702f5f6db06f1d08ab382b5f34f00000000000000000000000000000000" +
				"000000000000000000000000000000003e05f8d5cf16389cb30ccd8f880f30bad8b9fabfc423c66573520b5a8e3946b4" +
				"00000020cb3061f22f33cd9b20fba062d6bc3f3db670faf93d3b45a5966dfa06b9373e02000000402b3cf474e04c1c15" +
				"14c490c62b974698be697a0713455df3cb0bc4252aebcc0736e2105ea2c1ecfd8b7c00416bf9bcfbb1da2aefe2282743" +
				"4e32d84d3ba2920b0000011300010000000870312d656e632d30000000000000000100000009636f7272656374656410" +
				"83bab1fa12cd150000000864722d686f7573650000000c7661756c742d676f6c64656e00000000af75d18853c58ee036" +
				"a48e21ad311edf102ed9f0bd06cf6316de1514c3dfba733e05f8d5cf16389cb30ccd8f880f30bad8b9fabfc423c66573" +
				"520b5a8e3946b43a12cc6d82c74c1587818c6fafaeafec14136778a5be74b9ec9e61d8fbaab12200000020cb3061f22f" +
				"33cd9b20fba062d6bc3f3db670faf93d3b45a5966dfa06b9373e02000000403c269ca8d889571e763d672f97c016998d" +
				"2343aec20d0690076f28ff51600b6dc328ac0fbfa1779bd381dea82cb59a839b11cc8da95e56a790987cf0c4492b0f",
			Encode:  func() []byte { return EncodeBundle(bundle) },
			Decode:  decode,
			Corrupt: ErrBadBundle,
		},
	)
	for name, vector := range map[string]string{"MVR1": goldenExportedBundleMVR1, "AES-GCM wrap": goldenExportedBundleGCMWrap} {
		old, _ := hex.DecodeString(vector)
		legacy, err := DecodeBundle(old)
		if err != nil {
			t.Fatal(err)
		}
		if err := provenance.CheckChain(legacy.ID, legacy.Custody); err != nil {
			t.Errorf("%s vector's custody chain: %v", name, err)
		}
		for i, ev := range legacy.Versions {
			if !bytes.Equal(CanonicalRecordBytes(ev.Record), CanonicalRecordBytes(bundle.Versions[i].Record)) || ev.PlainHash != bundle.Versions[i].PlainHash {
				t.Errorf("version %d: the %s vector's record differs from this export's", i+1, name)
			}
		}
	}
}

// TestGoldenExportedBundleLayout pins the layout of an export shaped like
// TestGoldenExportedBundle's — one record put and then corrected, with its
// created and corrected custody events — from a literal: fixed ciphertext
// hashes, event hashes, signer key and 64-B signatures, and no vault or
// random stream. Its bytes move only when the bundle layout does.
func TestGoldenExportedBundleLayout(t *testing.T) {
	rec := ehr.Record{
		ID: "p1-enc-0", Patient: "Ada L.", MRN: "p1", Category: ehr.CategoryClinical,
		Author: "dr-house", CreatedAt: goldenTime, Title: "Visit", Body: "note text",
	}
	corrected := rec
	corrected.Body = "note text, corrected"
	key := goldenHash(0xc0)
	custody := func(index uint64, typ provenance.EventType, ct, prev, hash, sig byte) provenance.Event {
		lo, hi := goldenHash(sig), goldenHash(sig+0x20)
		return provenance.Event{
			Record: rec.ID, Index: index, Type: typ, Timestamp: goldenTime, Actor: "dr-house", System: "vault-golden",
			ContentHash: goldenHash(ct), PrevHash: goldenHash(prev), Hash: goldenHash(hash),
			SignerKey: key[:], Signature: append(lo[:], hi[:]...),
		}
	}
	bundle := ExportBundle{
		ID: rec.ID, Category: ehr.CategoryClinical,
		Versions: []ExportedVersion{
			{Record: rec, Version: Version{Number: 1, Author: "dr-house", Timestamp: goldenTime}, PlainHash: goldenHash(0x50)},
			{Record: corrected, Version: Version{Number: 2, Author: "dr-house", Timestamp: goldenTime}, PlainHash: goldenHash(0x60)},
		},
		Custody: []provenance.Event{
			custody(0, provenance.EventCreated, 0x20, 0x00, 0x70, 0x80),
			custody(1, provenance.EventCorrected, 0x30, 0x70, 0x90, 0xa0),
		},
	}
	frame.CheckGolden(t, frame.Golden{
		Name: "exported bundle layout",
		Hex: "4d5658420000000870312d656e632d3000000008636c696e6963616c000000020000005a4d5652310000000870312d65" +
			"6e632d3000000006416461204c2e00000002703100000008636c696e6963616c0000000864722d686f7573651083bab1" +
			"fa12cd15000000055669736974000000096e6f74652074657874000000000000000864722d686f757365000000000000" +
			"00011083bab1fa12cd15505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f000000654d56" +
			"52310000000870312d656e632d3000000006416461204c2e00000002703100000008636c696e6963616c000000086472" +
			"2d686f7573651083bab1fa12cd15000000055669736974000000146e6f746520746578742c20636f7272656374656400" +
			"0000000000000864722d686f75736500000000000000021083bab1fa12cd15606162636465666768696a6b6c6d6e6f70" +
			"7172737475767778797a7b7c7d7e7f000000020000011100010000000870312d656e632d300000000000000000000000" +
			"07637265617465641083bab1fa12cd150000000864722d686f7573650000000c7661756c742d676f6c64656e00000000" +
			"202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f000102030405060708090a0b0c0d0e0f" +
			"101112131415161718191a1b1c1d1e1f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f" +
			"00000020c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf000000408081828384858687" +
			"88898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7" +
			"b8b9babbbcbdbebf0000011300010000000870312d656e632d30000000000000000100000009636f7272656374656410" +
			"83bab1fa12cd150000000864722d686f7573650000000c7661756c742d676f6c64656e00000000303132333435363738" +
			"393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f707172737475767778797a7b7c7d7e7f808182838485868788" +
			"898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf00000020c0c1c2c3c4" +
			"c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf00000040a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0" +
			"b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf",
		Encode:  func() []byte { return EncodeBundle(bundle) },
		Decode:  func(b []byte) (any, error) { return DecodeBundle(b) },
		Want:    bundle,
		Corrupt: ErrBadBundle,
	})
}

// goldenExportedBundleGCMWrap is TestGoldenExportedBundle's export as a
// vault that wrapped DEKs with AES-GCM wrote it: the wrap drew a nonce from
// the seeded random source, so every later nonce, and with them the
// ciphertext hashes the custody events commit to, differ.
const goldenExportedBundleGCMWrap = "4d5658420000000870312d656e632d3000000008636c696e6963616c000000020000005a4d5652310000000870312d65" +
	"6e632d3000000006416461204c2e00000002703100000008636c696e6963616c0000000864722d686f7573651083bab1" +
	"fa12cd15000000055669736974000000096e6f74652074657874000000000000000864722d686f757365000000000000" +
	"00011083bab1fa12cd15218b57459642de2073e74c2e38624762eb1dcdc5504785fa4c1bff0584c3d1ce000000654d56" +
	"52310000000870312d656e632d3000000006416461204c2e00000002703100000008636c696e6963616c000000086472" +
	"2d686f7573651083bab1fa12cd15000000055669736974000000146e6f746520746578742c20636f7272656374656400" +
	"0000000000000864722d686f75736500000000000000021083bab1fa12cd1504f7b0713bd308d8f63e5a746eef4467de" +
	"6f17378f0acbd43d54f14b77ee6cbc000000020000011100010000000870312d656e632d300000000000000000000000" +
	"07637265617465641083bab1fa12cd150000000864722d686f7573650000000c7661756c742d676f6c64656e00000000" +
	"23af93c6ddf77e9e8034186c0d5ddf8d0006b79f15d0766bdc9d4f51f94d893000000000000000000000000000000000" +
	"000000000000000000000000000000003d2cf482f738becf25f68be15f9b078f4b65dc444fea1e7ef419f75450c26733" +
	"00000020cb3061f22f33cd9b20fba062d6bc3f3db670faf93d3b45a5966dfa06b9373e0200000040868d3486fe0eca12" +
	"aaac8eef254974249ebcc08be5c1db1de31cb4cc173554bab30b0ce8214dc6363e301fe96c1a88d155df870ccf37c1ee" +
	"67e36088f05dd80c0000011300010000000870312d656e632d30000000000000000100000009636f7272656374656410" +
	"83bab1fa12cd150000000864722d686f7573650000000c7661756c742d676f6c64656e0000000052c5642928fb439483" +
	"4de8234479f6de88501dea46bea2de3e70d371671920973d2cf482f738becf25f68be15f9b078f4b65dc444fea1e7ef4" +
	"19f75450c26733085def8a0050f3ecd8048546fa52a84e87a0c2e8e76251a8eba7012af6e62fb300000020cb3061f22f" +
	"33cd9b20fba062d6bc3f3db670faf93d3b45a5966dfa06b9373e020000004090e3b8d055d4c5af46f8823c120a23d5f2" +
	"8f4d58ac0219b1519f5e218486bec0f16b1255bfb849c0f89787375cded819bc8a0010147bcaa52f68f321d34a1002"

// goldenExportedBundleMVR1 is TestGoldenExportedBundle's export as a vault
// that sealed each version's MVR1 encoding wrote it.
const goldenExportedBundleMVR1 = "4d5658420000000870312d656e632d3000000008636c696e6963616c000000020000005a4d5652310000000870312d65" +
	"6e632d3000000006416461204c2e00000002703100000008636c696e6963616c0000000864722d686f7573651083bab1" +
	"fa12cd15000000055669736974000000096e6f74652074657874000000000000000864722d686f757365000000000000" +
	"00011083bab1fa12cd15218b57459642de2073e74c2e38624762eb1dcdc5504785fa4c1bff0584c3d1ce000000654d56" +
	"52310000000870312d656e632d3000000006416461204c2e00000002703100000008636c696e6963616c000000086472" +
	"2d686f7573651083bab1fa12cd15000000055669736974000000146e6f746520746578742c20636f7272656374656400" +
	"0000000000000864722d686f75736500000000000000021083bab1fa12cd1504f7b0713bd308d8f63e5a746eef4467de" +
	"6f17378f0acbd43d54f14b77ee6cbc000000020000011100010000000870312d656e632d300000000000000000000000" +
	"07637265617465641083bab1fa12cd150000000864722d686f7573650000000c7661756c742d676f6c64656e00000000" +
	"37ad48f35341dc6a377901e3819f75389d61d24130c26c063562454845dc8ba400000000000000000000000000000000" +
	"000000000000000000000000000000004d38c93a2f1c6eef4915866c8039b5fea8f279d5eae93768e632e2c5067b4438" +
	"00000020cb3061f22f33cd9b20fba062d6bc3f3db670faf93d3b45a5966dfa06b9373e0200000040b2d3ec2a3c4bef32" +
	"47a536dbd76bc5ce022e0cccdb590ad135882dd8f99486ee6b89ff178f3fae353ac5774bc1401712af7977af44a355e2" +
	"4b061345e8341d020000011300010000000870312d656e632d30000000000000000100000009636f7272656374656410" +
	"83bab1fa12cd150000000864722d686f7573650000000c7661756c742d676f6c64656e0000000049c7abcd470ee2860c" +
	"8a2780c851533a2e31c99cb39ad0ee3edb9c84436d563e4d38c93a2f1c6eef4915866c8039b5fea8f279d5eae93768e6" +
	"32e2c5067b443879ff5631000baf62a2d5fcbc6f3b205c7e9845cdc7875dd25022915b8de4eb7d00000020cb3061f22f" +
	"33cd9b20fba062d6bc3f3db670faf93d3b45a5966dfa06b9373e020000004045949718ad93f2b8d96d4ad654c41a7ba4" +
	"bdbe2ee10dae8bb59a541d9a6307db1ea2d9305f0aa7cf22c37fc0f175b80364ba2864de31436d1f034ee1a6112909"

// TestGoldenMetaSnapshot pins meta.snap through the one decoder recovery
// uses. The v3 vector is decode-only; the v4 vector is what the encoder
// writes for the same state, so it also pins the v3 → v4 rewrite a Close
// after an upgrade performs.
func TestGoldenMetaSnapshot(t *testing.T) {
	v3, _ := hex.DecodeString(goldenMetaSnap)
	v4, _ := hex.DecodeString(goldenMetaSnapV4)
	reencode := func(b []byte) (any, error) {
		s, err := decodeSnapshot(b)
		if err != nil {
			return nil, err
		}
		return s.encode(), nil
	}
	frame.CheckGolden(t,
		frame.Golden{
			Name:    "meta.snap v3 (decode-only)",
			Hex:     goldenMetaSnap,
			Decode:  reencode,
			Want:    v4,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name:    "meta.snap v4",
			Hex:     goldenMetaSnapV4,
			Decode:  reencode,
			Want:    v4,
			Corrupt: ErrCorrupt,
		},
	)
	for name, b := range map[string][]byte{"v3": v3, "v4": v4} {
		s, err := decodeSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		if s.leafSeq != 3 || len(s.leaves) != 3 || len(s.records) != 2 {
			t.Fatalf("%s decoded leafSeq=%d leaves=%d records=%d, want 3/3/2", name, s.leafSeq, len(s.leaves), len(s.records))
		}
		kept, shredded := s.records[0], s.records[1]
		if kept.id != "p1-enc-0" || kept.category != ehr.CategoryClinical || kept.mrn != "p1" || kept.flags != 0 ||
			len(kept.versions) != 2 || kept.versions[1].Number != 2 || kept.versions[1].LeafIndex != 2 {
			t.Errorf("%s kept record decoded as %+v", name, kept)
		}
		if shredded.id != "p2-enc-0" || shredded.flags != 1 || len(shredded.versions) != 1 {
			t.Errorf("%s shredded record decoded as %+v", name, shredded)
		}
		if len(s.holds) != 1 || s.holds[0].Record != "p1-enc-0" || s.holds[0].Reason != "litigation" ||
			!s.holds[0].Placed.Equal(kept.versions[1].Timestamp) {
			t.Errorf("%s holds decoded as %+v", name, s.holds)
		}
		// leafSeq is the leaf count, written from the Merkle log's size.
		s.leafSeq++
		if _, err := decodeSnapshot(s.encode()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s with leafSeq past its leaf count: %v, want ErrCorrupt", name, err)
		}
	}
}

// BenchmarkAblationCodecWALVEntry is the WAL-entry case of the root
// BenchmarkAblationCodec (the encoders are unexported, so it lives here): the
// 'V' entry and the Merkle leaf data every put and correction encodes.
func BenchmarkAblationCodecWALVEntry(b *testing.B) {
	e := goldenCreate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.encode()
		leafData(e.id, e.ver.Number, e.ver.CtHash)
	}
}
