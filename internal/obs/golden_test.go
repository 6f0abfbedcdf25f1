package obs

import (
	"errors"
	"testing"
	"time"

	"medvault/internal/frame"
)

// TestGoldenFlightEvent pins the flight-segment event layout (v3: seq and
// time as signed deltas from the previous event of the segment, kind and
// outcome as vocabulary words, hex IDs packed, the 512-byte cap), a whole v3
// segment (its magic byte, then a frame.Var frame), and the v2 and v1
// layouts older segments hold, which are read only.
func TestGoldenFlightEvent(t *testing.T) {
	ev := FlightEvent{
		Seq: 5, Time: time.Unix(0, 1190000000123456789), Kind: "put", Record: "a1b2c3d4e5f6",
		Trace: "trace-1", Outcome: "ok", Dur: 1500 * time.Microsecond, Shard: "2", Detail: "v2",
	}
	prev := ev.Time.UnixNano() - 2500*int64(time.Microsecond)
	rejected := errors.New("decoder reported !ok")
	decode := func(prev int64) func([]byte) (any, error) {
		return func(b []byte) (any, error) {
			got, ok := decodeLegacyFlightEvent(b, 5, prev)
			if !ok {
				return nil, rejected
			}
			return got, nil
		}
	}
	frame.CheckGolden(t,
		frame.Golden{
			Name:   "flight event v3",
			Hex:    "06c096b102e0c65b010da1b2c3d4e5f60e74726163652d31010232047632",
			Encode: func() []byte { return encodeFlightEvent(nil, ev, 3, 2500*int64(time.Microsecond)) },
			Decode: func(b []byte) (any, error) {
				got, ok := decodeFlightEvent(b, 2, prev)
				if !ok {
					return nil, rejected
				}
				return got, nil
			},
			Want: ev,
		},
		frame.Golden{
			Name: "flight segment v3",
			Hex:  "f3230cc492d70aaab496a1bfacdd8321e0c65b010da1b2c3d4e5f60e74726163652d31010232047632",
			Encode: func() []byte {
				return sinkSegment(t, []FlightEvent{ev})
			},
			Decode: func(b []byte) (any, error) {
				evs, tail := DecodeFlightSegment(b)
				if tail != 0 || len(evs) != 1 {
					return nil, rejected
				}
				return evs[0], nil
			},
			Want: ev,
		},
		frame.Golden{
			Name:   "flight event v2 (legacy, read only)",
			Hex:    "02c096b102e0c65b067075740da1b2c3d4e5f60e74726163652d31046f6b0232047632",
			Decode: decode(prev),
			Want:   ev,
		},
		frame.Golden{
			Name: "flight event v1 (legacy, read only)",
			Hex: "0100000000000000051083bab1fa12cd15000000000016e3600003707574000c61316232633364346535663600077472" +
				"6163652d3100026f6b00013200027632",
			Decode: decode(0),
			Want:   ev,
		},
	)
}
