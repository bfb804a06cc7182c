//go:build race

package uop

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so pooled-scratch allocation contracts cannot be asserted.
const raceEnabled = true
