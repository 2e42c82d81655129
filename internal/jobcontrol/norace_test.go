//go:build !race

package jobcontrol

const raceEnabled = false
