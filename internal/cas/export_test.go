package cas

import "time"

// Options only tests set: deployed code runs on the wall clock and the
// default credential lifetime.

// WithTTL sets the lifetime of issued restricted credentials.
func WithTTL(ttl time.Duration) Option {
	return func(s *Server) { s.ttl = ttl }
}

// WithClock sets the server's time source.
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}
