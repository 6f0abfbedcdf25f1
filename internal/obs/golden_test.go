package obs

import (
	"errors"
	"testing"
	"time"

	"medvault/internal/frame"
)

// TestGoldenFlightEvent pins the flight-segment event layout (u16-length
// strings, unlike every other format, with the 512-byte cap).
func TestGoldenFlightEvent(t *testing.T) {
	ev := FlightEvent{
		Seq: 5, Time: time.Unix(0, 1190000000123456789), Kind: "put", Record: "a1b2c3d4e5f6",
		Trace: "trace-1", Outcome: "ok", Dur: 1500 * time.Microsecond, Shard: "2", Detail: "v2",
	}
	rejected := errors.New("decoder reported !ok")
	frame.CheckGolden(t, frame.Golden{
		Name: "flight event v1",
		Hex: "0100000000000000051083bab1fa12cd15000000000016e3600003707574000c61316232633364346535663600077472" +
			"6163652d3100026f6b00013200027632",
		Encode: func() []byte { return encodeFlightEvent(ev) },
		Decode: func(b []byte) (any, error) {
			got, ok := decodeFlightEvent(b)
			if !ok {
				return nil, rejected
			}
			return got, nil
		},
		Want: ev,
	})
}
