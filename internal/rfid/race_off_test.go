//go:build !race

package rfid

const raceEnabled = false
