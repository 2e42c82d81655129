package accounts

import "time"

// Options only tests set: deployed code runs on the wall clock.

// WithClock sets the manager's time source.
func WithClock(now func() time.Time) Option {
	return func(m *Manager) { m.now = now }
}
