package gsi

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"
)

// Bulk deterministic credential fabrication for the reference
// benchmark (bench/): its runs fabricate tens of thousands of
// identities, and comparing two runs needs the same seed to produce
// the same key material. KeyFromSeed derives Ed25519 keys from a
// labelled SHA-256 chain; IssueWithKey and DelegateWithKey are Issue
// and Delegate with the key generation factored out, so fabricated
// chains verify exactly like organically issued ones.

// KeyFromSeed deterministically derives an Ed25519 private key from a
// run seed and a label chain (e.g. "user", index). Distinct label
// chains yield independent keys; the same chain always yields the same
// key. Not for production key material — the seed space is the point:
// it makes synthetic identity fabrication reproducible.
func KeyFromSeed(seed int64, labels ...string) ed25519.PrivateKey {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, l := range labels {
		binary.BigEndian.PutUint64(b[:], uint64(len(l)))
		h.Write(b[:])
		h.Write([]byte(l))
	}
	return ed25519.NewKeyFromSeed(h.Sum(nil))
}

// IssueWithKey is Issue with a caller-supplied private key (typically
// from KeyFromSeed): it skips the entropy read, which is what makes
// fabricating tens of thousands of identities per second feasible on
// one core.
func (ca *CA) IssueWithKey(subject DN, kind string, key ed25519.PrivateKey) (*Credential, error) {
	if !subject.Valid() {
		return nil, fmt.Errorf("gsi: invalid subject %q", subject)
	}
	switch kind {
	case KindUser, KindService, KindCA:
	default:
		return nil, fmt.Errorf("gsi: CA cannot issue kind %q", kind)
	}
	if len(key) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("gsi: bad private key size %d", len(key))
	}
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	ca.mu.Unlock()
	now := ca.now()
	cert := &Certificate{
		Serial:    serial,
		Kind:      kind,
		Subject:   subject,
		Issuer:    ca.cred.Leaf().Subject,
		PublicKey: key.Public().(ed25519.PublicKey),
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(ca.ttl),
	}
	if err := signCert(cert, ca.cred.Key); err != nil {
		return nil, err
	}
	chain := append([]*Certificate{cert}, ca.cred.Chain...)
	return &Credential{Chain: chain, Key: key}, nil
}

// DelegateWithKey is Delegate with a caller-supplied proxy private key
// (typically from KeyFromSeed), for bulk deterministic proxy-chain
// fabrication.
func DelegateWithKey(parent *Credential, ttl time.Duration, limited bool, key ed25519.PrivateKey) (*Credential, error) {
	leaf := parent.Leaf()
	if leaf == nil {
		return nil, ErrNoCertificates
	}
	if parent.Key == nil {
		return nil, fmt.Errorf("gsi: cannot delegate without the parent private key")
	}
	if leaf.Kind == KindLimited {
		return nil, fmt.Errorf("%w: limited proxy cannot delegate further", ErrBadProxy)
	}
	if len(key) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("gsi: bad private key size %d", len(key))
	}
	kind := KindProxy
	cn := "proxy"
	if limited {
		kind = KindLimited
		cn = "limited proxy"
	}
	now := time.Now()
	notAfter := now.Add(ttl)
	if leaf.NotAfter.Before(notAfter) {
		notAfter = leaf.NotAfter // a proxy cannot outlive its signer
	}
	cert := &Certificate{
		Serial:    leaf.Serial,
		Kind:      kind,
		Subject:   leaf.Subject.WithCN(cn),
		Issuer:    leaf.Subject,
		PublicKey: key.Public().(ed25519.PublicKey),
		NotBefore: now.Add(-time.Minute),
		NotAfter:  notAfter,
	}
	if err := signCert(cert, parent.Key); err != nil {
		return nil, err
	}
	return &Credential{
		Chain: append([]*Certificate{cert}, parent.Chain...),
		Key:   key,
	}, nil
}
