//go:build !race

package uop

const raceEnabled = false
