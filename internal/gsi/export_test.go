package gsi

import (
	"crypto/ed25519"
	"fmt"
	"time"
)

// Options only tests set: deployed code runs on the wall clock.

// WithClock sets the CA's time source (for deterministic tests).
func WithClock(now func() time.Time) CAOption {
	return func(ca *CA) { ca.now = now }
}

// WithNow sets the authenticator's time source.
func WithNow(now func() time.Time) AuthOption {
	return func(a *Authenticator) { a.now = now }
}

// Certificate and trust-store operations only tests use.

// CheckSignature verifies the certificate's signature with the given
// issuer public key. It always does the curve arithmetic: it is the
// uncached primitive TrustStore.Verify's signature memo is tested
// against.
func (c *Certificate) CheckSignature(issuerKey ed25519.PublicKey) error {
	msg, err := c.tbs()
	if err != nil {
		return fmt.Errorf("encode certificate: %w", err)
	}
	if !ValidSignature(issuerKey, msg, c.Signature) {
		return ErrBadSignature
	}
	return nil
}

// Public returns a verification-only copy of the credential without the
// private key, safe to send to a peer.
func (c *Credential) Public() *Credential {
	return &Credential{Chain: append([]*Certificate(nil), c.Chain...)}
}

// Add installs an additional trust anchor.
func (ts *TrustStore) Add(anchor *Certificate) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.anchors[anchor.Subject] = anchor
}
