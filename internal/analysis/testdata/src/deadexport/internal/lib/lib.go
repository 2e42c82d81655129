// Fixture for the deadexport analyzer: an exported func, var or const,
// method or struct field of an internal package needs a reference from
// a non-test file.
package lib

import "fmt"

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

// describe keeps fmt, and with it fmt.Stringer, among the imports.
func describe(v any) string { return fmt.Sprint(v) }

// T's exported methods need a caller, unless an interface declares
// their name.
type T struct{}

// Dead has no reference and no interface declares its name.
func (T) Dead() {} // want `exported method T.Dead is referenced by no non-test file`

// TestOnlyMethod is called from lib_test.go alone.
func (T) TestOnlyMethod() {} // want `exported method T.TestOnlyMethod is referenced by no non-test file`

// String has no caller, but fmt.Stringer declares its name.
func (T) String() string { return "T" }

// Namer is an interface of this package; nothing uses it.
type Namer interface{ Name() string }

// Name has no caller, but Namer declares its name.
func (T) Name() string { return "t" }

// Called is called from the app package.
func (*T) Called() {}

// WaivedMethod is kept, with a reason, for another package's tests.
//
//authlint:ignore deadexport app_test.go needs it
func (T) WaivedMethod() {}

// Inner's method is reached only through Outer, which embeds it.
type Inner struct{}

// Promoted is selected as Outer.Promoted by the app package.
func (Inner) Promoted() {}

// Outer embeds Inner; the embedded field itself is not checked.
type Outer struct {
	Inner
}

// Config's exported fields need a reference too.
type Config struct {
	// Read is read through a selector by the app package.
	Read int
	// Keyed is only ever set as a keyed-literal key.
	Keyed int
	// Dead is named nowhere outside tests.
	Dead int // want `exported field Config.Dead is referenced by no non-test file`
	// unexported fields are out of scope.
	hidden int
}
