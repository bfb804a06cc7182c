//go:build race

package router

// raceEnabled: the race detector's instrumentation allocates, so allocation
// contracts cannot be asserted under it.
const raceEnabled = true
