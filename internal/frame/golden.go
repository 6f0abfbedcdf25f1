package frame

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
)

// Golden pins one persisted or wire format to the bytes it had when the
// vector was captured. Each package that owns a format lists its vectors in
// a golden_test.go and hands them to CheckGolden, so the byte-equality,
// truncation and allocation rules are stated once for every format.
type Golden struct {
	Name string
	Hex  string
	// Encode must reproduce Hex. Nil for formats whose encoding is
	// randomised (sealed snapshots carry fresh nonces).
	Encode func() []byte
	// Decode parses the format; nil for hash and signature domains, which
	// are written but never parsed. Want, when non-nil, is what Decode(Hex)
	// must return.
	Decode func([]byte) (any, error)
	Want   any
	// Corrupt is the sentinel every rejected input must wrap (nil: any error).
	Corrupt error
}

// TB is the subset of testing.TB CheckGolden needs; spelling it out keeps
// package testing out of every binary that links the codec.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// goldenAllocBound caps what decoding any prefix of a (sub-kilobyte) vector
// may allocate: a count field must never size an allocation by itself.
const goldenAllocBound = 1 << 20

// CheckGolden asserts, for every vector: Encode() == Hex, Decode(Hex) ==
// Want, and that every strict prefix and the one-trailing-byte extension are
// rejected with the Corrupt sentinel — without a panic and without
// allocating beyond goldenAllocBound.
func CheckGolden(t TB, vectors ...Golden) {
	t.Helper()
	for _, g := range vectors {
		want, err := hex.DecodeString(g.Hex)
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: bad hex literal: %v", g.Name, err)
		}
		if g.Encode != nil {
			if got := g.Encode(); !bytes.Equal(got, want) {
				t.Errorf("%s: encoding changed\n got %x\nwant %x", g.Name, got, want)
			}
		}
		if g.Decode == nil {
			continue
		}
		got, err := g.Decode(want)
		if err != nil {
			t.Errorf("%s: decoding the golden bytes: %v", g.Name, err)
		} else if g.Want != nil && !reflect.DeepEqual(got, g.Want) {
			t.Errorf("%s: decoded\n got %+v\nwant %+v", g.Name, got, g.Want)
		}
		reject := func(what string, in []byte) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := g.Decode(in)
			runtime.ReadMemStats(&after)
			switch {
			case err == nil:
				t.Errorf("%s: %s accepted", g.Name, what)
			case g.Corrupt != nil && !errors.Is(err, g.Corrupt):
				t.Errorf("%s: %s: error %q does not wrap %q", g.Name, what, err, g.Corrupt)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > goldenAllocBound {
				t.Errorf("%s: %s allocated %d bytes", g.Name, what, n)
			}
		}
		for cut := range want {
			reject(fmt.Sprintf("truncation to %d of %d bytes", cut, len(want)), want[:cut])
		}
		reject("trailing byte", append(want[:len(want):len(want)], 0))
	}
}
