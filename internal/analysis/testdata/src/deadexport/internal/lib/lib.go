// Fixture for the deadexport analyzer: an exported func, var or const
// of an internal package needs a reference from a non-test file.
package lib

// TestOnly is referenced from lib_test.go alone, which does not count.
func TestOnly() {} // want `exported func TestOnly is referenced by no non-test file`

// UsedElsewhere is called from the app package.
func UsedElsewhere() {}

// UsedHere is called from this package's own non-test code.
func UsedHere() int { return 1 }

func caller() int { return UsedHere() }

// Waived is kept, with a reason, for another package's tests.
//
//authlint:ignore deadexport app_test.go needs it
func Waived() {}

// NoReason's trailing waiver gives no reason, so it is a finding and
// waives nothing.
func NoReason() {} /* want `exported func NoReason is referenced by no non-test file` `needs an analyzer name and a reason` */ //authlint:ignore deadexport

// Limit is an exported constant nothing references.
const Limit = 3 // want `exported const Limit is referenced by no non-test file`

// Default is read by the app package.
var Default = 1

// T's methods are out of the check's scope.
type T struct{}

// Method has no reference and is not reported.
func (T) Method() {}
