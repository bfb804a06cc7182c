//go:build race

package rfid

// raceEnabled: the race detector's instrumentation allocates, so
// allocation contracts cannot be asserted under it.
const raceEnabled = true
