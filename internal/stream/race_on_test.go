//go:build race

package stream

// raceEnabled: the race detector's instrumentation allocates, so allocation
// contracts are asserted only in ordinary builds.
const raceEnabled = true
