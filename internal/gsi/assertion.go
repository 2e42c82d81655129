package gsi

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Assertion errors.
var (
	ErrAssertionExpired = errors.New("gsi: assertion outside its validity window")
	ErrAssertionForged  = errors.New("gsi: assertion signature invalid")
	ErrWrongHolder      = errors.New("gsi: assertion holder does not match credential")
)

// Assertion is a signed VO attribute statement: the VO asserts that Holder
// is a member with the listed groups and roles, and is entitled to submit
// jobs under the listed jobtags. In GT2 deployments this is the
// information a CAS or VOMS credential would carry; the paper notes that
// "in a real system the VO policies would be carried in the VO
// credentials".
type Assertion struct {
	VO        string    `json:"vo"`
	Holder    DN        `json:"holder"`
	Groups    []string  `json:"groups,omitempty"`
	Roles     []string  `json:"roles,omitempty"`
	Jobtags   []string  `json:"jobtags,omitempty"`
	Policy    string    `json:"policy,omitempty"` // embedded policy text (CAS-style)
	Issuer    DN        `json:"issuer"`
	NotBefore time.Time `json:"notBefore"`
	NotAfter  time.Time `json:"notAfter"`
	Signature []byte    `json:"signature"`
}

// tbs returns the encoding the assertion's signature covers: every
// field except the signature.
func (a *Assertion) tbs() ([]byte, error) {
	if b, ok := appendAssertion(make([]byte, 0, 512), a, true); ok {
		return b, nil
	}
	shadow := *a
	shadow.Signature = nil
	return json.Marshal(&shadow)
}

// SignAssertion fills in the issuer and signature fields using the VO's
// credential.
func SignAssertion(a *Assertion, issuer *Credential) error {
	leaf := issuer.Leaf()
	if leaf == nil {
		return ErrNoCertificates
	}
	a.Issuer = leaf.Subject
	msg, err := a.tbs()
	if err != nil {
		return fmt.Errorf("encode assertion: %w", err)
	}
	sig, err := issuer.Sign(msg)
	if err != nil {
		return err
	}
	a.Signature = sig
	return nil
}

// VerifyAssertion checks the assertion's signature against the issuer
// certificate, its validity window at time t, and that it was issued to
// holder.
func VerifyAssertion(a *Assertion, issuerCert *Certificate, holder DN, t time.Time) error {
	if a.Issuer != issuerCert.Subject {
		return fmt.Errorf("%w: issued by %s, expected %s", ErrAssertionForged, a.Issuer, issuerCert.Subject)
	}
	msg, err := a.tbs()
	if err != nil {
		return fmt.Errorf("encode assertion: %w", err)
	}
	if !ValidSignature(issuerCert.PublicKey, msg, a.Signature) {
		return ErrAssertionForged
	}
	if t.Before(a.NotBefore) || t.After(a.NotAfter) {
		return ErrAssertionExpired
	}
	if a.Holder != holder {
		return fmt.Errorf("%w: held by %s, presented by %s", ErrWrongHolder, a.Holder, holder)
	}
	return nil
}

// AllowsJobtag reports whether the assertion entitles the holder to use
// the given jobtag. An assertion with no jobtag list allows none.
func (a *Assertion) AllowsJobtag(tag string) bool {
	for _, t := range a.Jobtags {
		if t == tag {
			return true
		}
	}
	return false
}
