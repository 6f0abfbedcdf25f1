//go:build race

package audit

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation counts pinned for the plain build do not hold under it.
const raceEnabled = true
