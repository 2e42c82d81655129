//go:build race

package gsi

// raceEnabled: the race detector is on, so sync.Pool drops items at
// random and allocation counts mean nothing.
const raceEnabled = true
