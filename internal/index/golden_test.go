package index

import (
	"encoding/hex"
	"errors"
	"testing"

	"medvault/internal/frame"
	"medvault/internal/vcrypto"
)

const (
	goldenPlaintextSnap = "4d56505800010000000200000005646f632d31000000030000000c687970657274656e73696f6e00000006666f6c6c6f" +
		"7700000002757000000005646f632d320000000200000006617374686d610000000c687970657274656e73696f6e"
	// Sealed under goldenSSEKey with the nonces of the run that captured it.
	goldenSSESnap = "4d5653580001000000040000004035376531333334663535623436623230613163623438376265633437363264623732" +
		"346333353565623061626237326463353962356166636637636635353864000000321b215e2578698c3347c800d1641e" +
		"3bd0768c742265e723589da44d6681b71aff2c6ae7f18d95c40089bd4ffbafbcf685ee15000000403564343139626666" +
		"633263353330366135303532616338353061383231653830353866393636363630396433363930613732306333656263" +
		"343532656664303100000029fdd910167f3c0369dac9ec29cee13a2e65a23df2d77a94f89e984e4f70303117acfed2ba" +
		"5506a54d2500000040373937356333306430343031656338646637653664376237393264353031323239623036313164" +
		"3535313939326434616232383931383966386363303964666100000029e33818b4be065fdf78ca97582a9aac64e3e846" +
		"47416087ac783de245bc7d9463510af9b1d699b016b40000004039333165616562343464656239616435393762353266" +
		"37366631656538633933353332376364663362613661643239656465396635306165333061626235666100000029635a" +
		"7fa849f9356938c359727895f61c3b30bb7cacfac716264d6a8ce3aa251aebb6a5ca36797739ee0000018eb509a2d36e" +
		"e484a6a6bb335f6390573d83ca483495be1a1561e27f8e0b99069f2e7fbcb90944134df342ffa792fa76a6291165740a" +
		"e7d77f5f27330cad949d09f42a6dff4047e5ef93857198de3477e2e6b9869a6e7bfdef11a44f31e7062240dfef7da91b" +
		"a14fe713ace054933e6a2347937da30d1086d5dc65f33228d6856c90bd30aa87e8fe1c09dda4a933863b221586b4262d" +
		"c55c6c7a078393d49fdda8c4e4637106ceabdb569e1ce80a321dd2532e3994196e696d94ec9da316c121c98db59036d6" +
		"2507bae6917fa9e1b6a308d9650e9f6854d100b857e648788f80e25da2cc8302ebd7486aa48892d5275e6b684fd6ffb6" +
		"9582c0afc6abadbc41d87c3e2c38ad05f245e88f804d9de34f68d49dddc073f88b145d5638bf337ecdb65a8be62653dd" +
		"4414f80179d95c60adab7fdccd19b80a41d2679407523d3aab5575cd80dcd6033bc4aa09e2fea9ae65579ae6580ec900" +
		"c414104956636a9665e92258ce2684771f399d2b1175826d67e2ba53625db66dc76cda8d10f695d6b95bbb4308462b14" +
		"2c05d8cb503b9bed18"
)

var goldenSSEKey = vcrypto.Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}

func goldenDocs(idx Index) {
	idx.Add("doc-1", "hypertension follow up")
	idx.Add("doc-2", "asthma hypertension")
}

// TestGoldenSnapshots pins both index snapshot layouts. The SSE snapshot is
// sealed with fresh nonces, so its encoder is checked by reload, not bytes.
func TestGoldenSnapshots(t *testing.T) {
	ptBytes, _ := hex.DecodeString(goldenPlaintextSnap)
	frame.CheckGolden(t,
		frame.Golden{
			Name: "plaintext index snapshot",
			Hex:  goldenPlaintextSnap,
			Encode: func() []byte {
				p := NewPlaintext()
				goldenDocs(p)
				snap, _ := p.Snapshot()
				return snap
			},
			Decode: func(b []byte) (any, error) {
				p, err := LoadPlaintext(b)
				if err != nil {
					return nil, err
				}
				snap, err := p.Snapshot()
				return snap, err
			},
			Want:    ptBytes,
			Corrupt: ErrCorrupt,
		},
		frame.Golden{
			Name: "sse index snapshot",
			Hex:  goldenSSESnap,
			Decode: func(b []byte) (any, error) {
				s, err := LoadSSE(goldenSSEKey, b)
				if err != nil {
					return nil, err
				}
				return [][]string{s.Search("hypertension"), s.Search("asthma"), s.Search("absent")}, nil
			},
			Want:    [][]string{{"doc-1", "doc-2"}, {"doc-2"}, {}},
			Corrupt: ErrCorrupt,
		},
	)

	s := NewSSE(goldenSSEKey)
	goldenDocs(s)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap)*2 != len(goldenSSESnap) {
		t.Errorf("sse snapshot is %d bytes, golden is %d", len(snap), len(goldenSSESnap)/2)
	}
	if re, err := LoadSSE(goldenSSEKey, snap); err != nil || len(re.Search("asthma")) != 1 {
		t.Errorf("re-encoded sse snapshot does not reload: %v", err)
	}
}

// TestLoadPlaintextHostileCount is the 18-byte snapshot whose word count of
// 0xFFFFFFFF used to size a 64 GiB allocation and kill the process.
func TestLoadPlaintextHostileCount(t *testing.T) {
	snap := []byte("MVPX\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\xff\xff\xff\xff")
	if _, err := LoadPlaintext(snap); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadPlaintext(hostile count) = %v, want ErrCorrupt", err)
	}
}
