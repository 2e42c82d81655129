package gsi

import "time"

// Options only tests set: deployed code runs on the wall clock.

// WithClock sets the CA's time source (for deterministic tests).
func WithClock(now func() time.Time) CAOption {
	return func(ca *CA) { ca.now = now }
}

// WithNow sets the authenticator's time source.
func WithNow(now func() time.Time) AuthOption {
	return func(a *Authenticator) { a.now = now }
}
