package gsi

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridauth/internal/jsonwire"
)

// Certificate kinds.
const (
	KindCA      = "ca"
	KindUser    = "user"
	KindService = "service"
	KindProxy   = "proxy"
	KindLimited = "limited-proxy"
)

// Errors returned by chain verification.
var (
	ErrExpired        = errors.New("gsi: certificate outside its validity window")
	ErrUntrusted      = errors.New("gsi: chain does not terminate at a trust anchor")
	ErrBadSignature   = errors.New("gsi: invalid certificate signature")
	ErrBadProxy       = errors.New("gsi: proxy certificate violates delegation rules")
	ErrNoCertificates = errors.New("gsi: empty certificate chain")
)

// Certificate is a simulated X.509 certificate. Signature covers the
// deterministic encoding of every other field and is produced with the
// issuer's Ed25519 key.
type Certificate struct {
	Serial    uint64            `json:"serial"`
	Kind      string            `json:"kind"`
	Subject   DN                `json:"subject"`
	Issuer    DN                `json:"issuer"`
	PublicKey []byte            `json:"publicKey"`
	NotBefore time.Time         `json:"notBefore"`
	NotAfter  time.Time         `json:"notAfter"`
	Ext       map[string]string `json:"ext,omitempty"`
	Signature []byte            `json:"signature"`
}

// tbs returns the certificate's "to be signed" encoding in a slice of
// its own (see appendTBS).
func (c *Certificate) tbs() ([]byte, error) {
	return c.appendTBS(make([]byte, 0, 512))
}

// ValidSignature reports whether sig is key's Ed25519 signature over
// msg. Keys arrive in certificates a peer wrote, and ed25519.Verify
// panics on a key of the wrong length, so the length is checked here.
func ValidSignature(key, msg, sig []byte) bool {
	return len(key) == ed25519.PublicKeySize && ed25519.Verify(key, msg, sig)
}

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

// ValidAt reports whether t falls within the certificate's validity
// window.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// IsProxy reports whether the certificate is a (possibly limited) proxy.
func (c *Certificate) IsProxy() bool {
	return c.Kind == KindProxy || c.Kind == KindLimited
}

// Credential is a certificate chain (leaf first, ending just below the
// trust anchor) together with the leaf private key. Verification-only
// copies have a nil Key.
type Credential struct {
	Chain []*Certificate
	Key   ed25519.PrivateKey
}

// Leaf returns the end certificate of the chain.
func (c *Credential) Leaf() *Certificate {
	if len(c.Chain) == 0 {
		return nil
	}
	return c.Chain[0]
}

// Subject returns the DN of the leaf certificate.
func (c *Credential) Subject() DN {
	if leaf := c.Leaf(); leaf != nil {
		return leaf.Subject
	}
	return ""
}

// Identity returns the effective Grid identity: the leaf subject with any
// proxy components stripped. This is the DN policies are written against.
func (c *Credential) Identity() DN {
	return c.Subject().Base()
}

// Public returns a verification-only copy of the credential without the
// private key, safe to send to a peer.
func (c *Credential) Public() *Credential {
	return &Credential{Chain: append([]*Certificate(nil), c.Chain...)}
}

// Sign signs a message with the credential's private key.
func (c *Credential) Sign(msg []byte) ([]byte, error) {
	if c.Key == nil {
		return nil, errors.New("gsi: credential has no private key")
	}
	return ed25519.Sign(c.Key, msg), nil
}

// VerifyBy checks that sig is a signature over msg by this credential's
// leaf key.
func (c *Credential) VerifyBy(msg, sig []byte) error {
	leaf := c.Leaf()
	if leaf == nil {
		return ErrNoCertificates
	}
	if !ValidSignature(leaf.PublicKey, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// CA is a certificate authority: a self-signed credential that can issue
// user, service and subordinate VO certificates.
type CA struct {
	mu     sync.Mutex
	cred   *Credential
	serial uint64
	now    func() time.Time
	ttl    time.Duration
}

// CAOption configures a CA.
type CAOption func(*CA)

// WithClock sets the CA's time source (for deterministic tests).
func WithClock(now func() time.Time) CAOption {
	return func(ca *CA) { ca.now = now }
}

// WithTTL sets the lifetime of issued certificates.
func WithTTL(ttl time.Duration) CAOption {
	return func(ca *CA) { ca.ttl = ttl }
}

// NewCA creates a self-signed certificate authority with the given
// subject DN.
func NewCA(subject DN, opts ...CAOption) (*CA, error) {
	if !subject.Valid() {
		return nil, fmt.Errorf("gsi: invalid CA subject %q", subject)
	}
	ca := &CA{now: time.Now, ttl: 12 * time.Hour}
	for _, o := range opts {
		o(ca)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate CA key: %w", err)
	}
	now := ca.now()
	cert := &Certificate{
		Serial:    1,
		Kind:      KindCA,
		Subject:   subject,
		Issuer:    subject,
		PublicKey: pub,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(10 * 365 * 24 * time.Hour),
	}
	if err := signCert(cert, priv); err != nil {
		return nil, err
	}
	ca.cred = &Credential{Chain: []*Certificate{cert}, Key: priv}
	ca.serial = 1
	return ca, nil
}

func signCert(cert *Certificate, key ed25519.PrivateKey) error {
	msg, err := cert.tbs()
	if err != nil {
		return fmt.Errorf("encode certificate: %w", err)
	}
	cert.Signature = ed25519.Sign(key, msg)
	return nil
}

// Certificate returns the CA's self-signed certificate, usable as a trust
// anchor.
func (ca *CA) Certificate() *Certificate { return ca.cred.Leaf() }

// Credential returns the CA's own credential (it signs VO assertions with
// it when the CA doubles as a VO root).
func (ca *CA) Credential() *Credential { return ca.cred }

// Issue creates a credential of the given kind for subject.
func (ca *CA) Issue(subject DN, kind string) (*Credential, error) {
	if !subject.Valid() {
		return nil, fmt.Errorf("gsi: invalid subject %q", subject)
	}
	switch kind {
	case KindUser, KindService, KindCA:
	default:
		return nil, fmt.Errorf("gsi: CA cannot issue kind %q", kind)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate key: %w", err)
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
		PublicKey: pub,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(ca.ttl),
	}
	if err := signCert(cert, ca.cred.Key); err != nil {
		return nil, err
	}
	chain := append([]*Certificate{cert}, ca.cred.Chain...)
	return &Credential{Chain: chain, Key: priv}, nil
}

// IssueWithCredential signs a new certificate for subject using an
// arbitrary CA credential (e.g. one reloaded from disk, where the *CA
// object is unavailable). The issuing credential's leaf must be a CA
// certificate.
func IssueWithCredential(issuer *Credential, subject DN, kind string) (*Credential, error) {
	leaf := issuer.Leaf()
	if leaf == nil {
		return nil, ErrNoCertificates
	}
	if leaf.Kind != KindCA {
		return nil, fmt.Errorf("gsi: %s is not a CA certificate", leaf.Subject)
	}
	if issuer.Key == nil {
		return nil, errors.New("gsi: issuing credential has no private key")
	}
	if !subject.Valid() {
		return nil, fmt.Errorf("gsi: invalid subject %q", subject)
	}
	switch kind {
	case KindUser, KindService, KindCA:
	default:
		return nil, fmt.Errorf("gsi: cannot issue kind %q", kind)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate key: %w", err)
	}
	now := time.Now()
	cert := &Certificate{
		Serial:    uint64(now.UnixNano()),
		Kind:      kind,
		Subject:   subject,
		Issuer:    leaf.Subject,
		PublicKey: pub,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  leaf.NotAfter,
	}
	if err := signCert(cert, issuer.Key); err != nil {
		return nil, err
	}
	return &Credential{
		Chain: append([]*Certificate{cert}, issuer.Chain...),
		Key:   priv,
	}, nil
}

// Delegate derives a proxy credential from parent, extending the chain by
// one proxy certificate valid for ttl. When limited is true the proxy is a
// "limited proxy", which resource managers traditionally refuse for job
// startup.
func Delegate(parent *Credential, ttl time.Duration, limited bool) (*Credential, error) {
	leaf := parent.Leaf()
	if leaf == nil {
		return nil, ErrNoCertificates
	}
	if parent.Key == nil {
		return nil, errors.New("gsi: cannot delegate without the parent private key")
	}
	if leaf.Kind == KindLimited {
		return nil, fmt.Errorf("%w: limited proxy cannot delegate further", ErrBadProxy)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate proxy key: %w", err)
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
		PublicKey: pub,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  notAfter,
	}
	if err := signCert(cert, parent.Key); err != nil {
		return nil, err
	}
	return &Credential{
		Chain: append([]*Certificate{cert}, parent.Chain...),
		Key:   priv,
	}, nil
}

// TrustStore is a set of trust anchors keyed by subject DN, plus a memo
// of the certificate signatures it has already verified (see sigMemo).
type TrustStore struct {
	mu      sync.RWMutex
	anchors map[DN]*Certificate

	memo      sigMemo
	sigChecks atomic.Uint64
	sigHits   atomic.Uint64
}

// NewTrustStore builds a trust store from the given anchor certificates.
func NewTrustStore(anchors ...*Certificate) *TrustStore {
	ts := &TrustStore{anchors: make(map[DN]*Certificate, len(anchors))}
	for _, a := range anchors {
		ts.anchors[a.Subject] = a
	}
	return ts
}

// Add installs an additional trust anchor.
func (ts *TrustStore) Add(anchor *Certificate) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.anchors[anchor.Subject] = anchor
}

// Anchor returns the anchor with the given subject, if present.
func (ts *TrustStore) Anchor(subject DN) (*Certificate, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	a, ok := ts.anchors[subject]
	return a, ok
}

// Signature memo geometry: sigMemoSets sets of sigMemoWays digests. It
// is a constant, not a setting: 16 384 digests are 512 KiB however many
// distinct certificates pass through, room for the user and proxy
// certificates of several thousand repeat subjects beside the CA and
// host ones.
const (
	sigMemoWays  = 4
	sigMemoSets  = 1 << 12
	sigMemoSlots = sigMemoSets * sigMemoWays
)

// sigDigest names one (issuer key, signed bytes, signature) triple.
type sigDigest [sha256.Size]byte

// digestSig hashes the three inputs of ed25519.Verify, each behind its
// length so that no two triples share an encoding.
func digestSig(key, msg, sig []byte) sigDigest {
	buf := make([]byte, 0, 1024) // stays on the stack for certificates of ordinary size
	for _, part := range [...][]byte{key, msg, sig} {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(part)))
		buf = append(buf, part...)
	}
	return sha256.Sum256(buf)
}

// sigMemo is a bounded set of digests of signatures that verified.
// Whether a signature is valid depends on nothing but the three byte
// strings under the digest, so an entry can never go stale: there is no
// TTL and no invalidation, and a replaced anchor misses because its key
// is part of the digest. The table is set-associative; a full set
// overwrites the way the incoming digest selects. The zero digest marks
// an empty way (finding an input that hashes to it is a preimage attack
// on SHA-256).
type sigMemo struct {
	mu   sync.Mutex
	sets [][sigMemoWays]sigDigest // allocated by the first insert
}

func (d *sigDigest) set() int {
	return int(binary.BigEndian.Uint16(d[:])) % sigMemoSets
}

func (m *sigMemo) has(d sigDigest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sets == nil {
		return false
	}
	set := &m.sets[d.set()]
	for i := range set {
		if set[i] == d {
			return true
		}
	}
	return false
}

func (m *sigMemo) add(ds []sigDigest) {
	if len(ds) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sets == nil {
		m.sets = make([][sigMemoWays]sigDigest, sigMemoSets)
	}
next:
	for _, d := range ds {
		set := &m.sets[d.set()]
		way := int(d[2]) % sigMemoWays
		for i := sigMemoWays - 1; i >= 0; i-- {
			switch set[i] {
			case d: // a concurrent Verify of the same chain got here first
				continue next
			case sigDigest{}:
				way = i
			}
		}
		set[way] = d
	}
}

// SigStats counts certificate signatures TrustStore.Verify had to
// establish and how many of them its memo answered without curve
// arithmetic.
type SigStats struct {
	Checks   uint64
	MemoHits uint64
}

// SigStats returns the store's totals since it was built. A low hit
// ratio under a high full-handshake rate means new identities are
// arriving, not that verification is slow.
func (ts *TrustStore) SigStats() SigStats {
	return SigStats{Checks: ts.sigChecks.Load(), MemoHits: ts.sigHits.Load()}
}

// chainSigs is the signature work of one Verify call.
type chainSigs struct {
	stats SigStats
	fresh []sigDigest // verified by curve arithmetic in this call
}

// checkSig is Certificate.CheckSignature behind the memo.
func (ts *TrustStore) checkSig(cert *Certificate, issuerKey []byte, cs *chainSigs) error {
	bp := jsonwire.GetFrame()
	msg, err := cert.appendTBS((*bp)[:0])
	defer jsonwire.PutFrame(bp, msg)
	if err != nil {
		return fmt.Errorf("encode certificate: %w", err)
	}
	cs.stats.Checks++
	d := digestSig(issuerKey, msg, cert.Signature)
	if ts.memo.has(d) {
		cs.stats.MemoHits++
		return nil
	}
	if !ValidSignature(issuerKey, msg, cert.Signature) {
		return ErrBadSignature
	}
	cs.fresh = append(cs.fresh, d)
	return nil
}

// Verify checks a credential chain at time t:
//
//   - every certificate is inside its validity window,
//   - every certificate is signed by the next one in the chain, which
//     for anything but a proxy must be a CA certificate,
//   - proxy certificates are issued by their parent subject and only
//     extend the parent DN by a proxy CN,
//   - the chain terminates at (or is directly signed by) a trust anchor.
//
// It returns the verified Grid identity (proxy components stripped).
//
// Only the Ed25519 arithmetic of a signature this store has verified
// before is skipped; every other check runs on every call. Signatures
// are memoized after the whole chain has passed, so a peer that cannot
// authenticate cannot fill the memo, and failures are never memoized.
func (ts *TrustStore) Verify(cred *Credential, t time.Time) (DN, error) {
	identity, _, err := ts.verifyCounted(cred, t)
	return identity, err
}

// verifyCounted is Verify plus the call's own signature counts, for the
// authenticator's metrics.
func (ts *TrustStore) verifyCounted(cred *Credential, t time.Time) (DN, SigStats, error) {
	var cs chainSigs
	identity, err := ts.verifyChain(cred, t, &cs)
	ts.sigChecks.Add(cs.stats.Checks)
	ts.sigHits.Add(cs.stats.MemoHits)
	if err != nil {
		return "", cs.stats, err
	}
	ts.memo.add(cs.fresh)
	return identity, cs.stats, nil
}

func (ts *TrustStore) verifyChain(cred *Credential, t time.Time, cs *chainSigs) (DN, error) {
	chain := cred.Chain
	if len(chain) == 0 {
		return "", ErrNoCertificates
	}
	for _, cert := range chain {
		if cert == nil { // "chain":[null] decodes to this
			return "", ErrNoCertificates
		}
	}
	for i, cert := range chain {
		if !cert.ValidAt(t) {
			return "", fmt.Errorf("%w: %s", ErrExpired, cert.Subject)
		}
		if cert.IsProxy() {
			if i+1 >= len(chain) {
				return "", fmt.Errorf("%w: proxy %s lacks its signer", ErrBadProxy, cert.Subject)
			}
			parent := chain[i+1]
			if cert.Issuer != parent.Subject {
				return "", fmt.Errorf("%w: proxy issuer %s != parent %s", ErrBadProxy, cert.Issuer, parent.Subject)
			}
			wantProxy := parent.Subject.WithCN("proxy")
			wantLimited := parent.Subject.WithCN("limited proxy")
			if cert.Subject != wantProxy && cert.Subject != wantLimited {
				return "", fmt.Errorf("%w: proxy subject %s does not extend %s", ErrBadProxy, cert.Subject, parent.Subject)
			}
			if err := ts.checkSig(cert, parent.PublicKey, cs); err != nil {
				return "", err
			}
			continue
		}
		// Non-proxy: either the issuer is in the chain or it must be a
		// trust anchor.
		if i+1 < len(chain) {
			parent := chain[i+1]
			if cert.Issuer != parent.Subject {
				return "", fmt.Errorf("gsi: certificate %s issued by %s, chain has %s", cert.Subject, cert.Issuer, parent.Subject)
			}
			if parent.Kind != KindCA {
				// Only proxies may hang off an end-entity certificate, and
				// they are held to the parent's own DN above.
				return "", fmt.Errorf("%w: %s issued by %s, which is not a CA", ErrUntrusted, cert.Subject, parent.Subject)
			}
			if err := ts.checkSig(cert, parent.PublicKey, cs); err != nil {
				return "", err
			}
			continue
		}
		anchor, ok := ts.Anchor(cert.Issuer)
		if !ok {
			return "", fmt.Errorf("%w: issuer %s", ErrUntrusted, cert.Issuer)
		}
		if err := ts.checkSig(cert, anchor.PublicKey, cs); err != nil {
			return "", err
		}
	}
	// The top of the chain must itself be anchored (self-signed roots
	// must literally be in the store).
	top := chain[len(chain)-1]
	if top.Issuer == top.Subject {
		if _, ok := ts.Anchor(top.Subject); !ok {
			return "", fmt.Errorf("%w: self-signed %s", ErrUntrusted, top.Subject)
		}
	}
	return cred.Identity(), nil
}
