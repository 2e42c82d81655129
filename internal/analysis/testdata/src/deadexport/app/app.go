// Package app is outside internal/: its exports are not checked, and
// its non-test references keep lib's identifiers alive.
package app

import "deadexport/internal/lib"

// Run uses lib from a non-test file.
func Run() int {
	lib.UsedElsewhere()
	var t lib.T
	t.Called()
	lib.Outer{}.Promoted()
	c := lib.Config{Keyed: 1}
	return lib.Default + c.Read
}
