//go:build !race

package gram

const raceEnabled = false
