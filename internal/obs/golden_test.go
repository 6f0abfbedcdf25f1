package obs

import (
	"errors"
	"testing"
	"time"

	"medvault/internal/frame"
)

// TestGoldenFlightEvent pins the flight-segment event layout (v2: the time
// as a delta from the previous event of the segment, hex IDs packed, the
// 512-byte cap) and the v1 layout older segments hold.
func TestGoldenFlightEvent(t *testing.T) {
	ev := FlightEvent{
		Seq: 5, Time: time.Unix(0, 1190000000123456789), Kind: "put", Record: "a1b2c3d4e5f6",
		Trace: "trace-1", Outcome: "ok", Dur: 1500 * time.Microsecond, Shard: "2", Detail: "v2",
	}
	prev := ev.Time.UnixNano() - 2500*int64(time.Microsecond)
	rejected := errors.New("decoder reported !ok")
	decode := func(prev int64) func([]byte) (any, error) {
		return func(b []byte) (any, error) {
			got, ok := decodeFlightEvent(b, 5, prev)
			if !ok {
				return nil, rejected
			}
			return got, nil
		}
	}
	frame.CheckGolden(t,
		frame.Golden{
			Name:   "flight event v2",
			Hex:    "02c096b102e0c65b067075740da1b2c3d4e5f60e74726163652d31046f6b0232047632",
			Encode: func() []byte { return encodeFlightEvent(ev, prev) },
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
