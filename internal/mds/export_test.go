package mds

import "time"

// Options only tests set: deployed code runs on the wall clock and the
// default registration lifetime.

// WithTTL sets the registration time-to-live (default 5 minutes).
func WithTTL(ttl time.Duration) Option {
	return func(d *Directory) { d.ttl = ttl }
}

// WithClock sets the time source.
func WithClock(now func() time.Time) Option {
	return func(d *Directory) { d.now = now }
}
