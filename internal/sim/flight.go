package sim

import (
	"strings"

	"medvault/internal/core"
)

// checkFlightTail is the simulator's black-box invariant, evaluated on the
// raw crash image after every power cut and before recovery remounts (which
// would start fresh segments in the same directories): the persisted flight
// tail must decode — torn final frames are expected crash damage, a decoder
// error or panic is not — and must be plaintext-free. The sim is in a
// uniquely strong position for the leak check: it knows every record ID it
// ever minted and the whole patient population, so it can scan every string
// field of every surviving event for all of them.
func (e *engine) checkFlightTail(i int, s Step) *Divergence {
	div := divAt(i, s)
	leaks := append(e.model.allIDs(), mrnPool...)
	evs, err := core.ReadFlightTail(e.mem, "vault")
	if err != nil {
		return div("flight tail undecodable after power cut: %v", err)
	}
	for _, ev := range evs {
		for _, field := range ev.Strings() {
			for _, leak := range leaks {
				if leak != "" && strings.Contains(field, leak) {
					return div("flight event %d leaks %q: %+v", ev.Seq, leak, ev)
				}
			}
		}
	}
	return nil
}
