//go:build race

package jobcontrol

// raceEnabled: the race detector is on, so sync.Pool drops items at
// random and allocation counts mean nothing.
const raceEnabled = true
