package gsi

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The signature memo must be invisible: for any chain, at any time, a
// store that has verified the honest chains before answers exactly as a
// store that has never verified anything (whose every signature check
// is the uncached ed25519 one). The tests below build one honest
// CA -> user -> proxy chain, derive hostile variants of it, and compare.

// memoFixture is one trust domain: Kate with a proxy, and Bo — a real
// member of the same CA, so the strongest attacker the memo meets: his
// own chains verify and are memoized.
type memoFixture struct {
	ca      *CA
	kate    *Credential // [user, ca]
	proxy   *Credential // [proxy, user, ca]
	bo      *Credential
	boProxy *Credential
	now     time.Time
}

func newMemoFixture(tb testing.TB) *memoFixture {
	tb.Helper()
	f := &memoFixture{now: time.Now()}
	var err error
	if f.ca, err = NewCA(caDN); err != nil {
		tb.Fatal(err)
	}
	if f.kate, err = f.ca.Issue(kateDN, KindUser); err != nil {
		tb.Fatal(err)
	}
	if f.proxy, err = Delegate(f.kate, time.Hour, false); err != nil {
		tb.Fatal(err)
	}
	if f.bo, err = f.ca.Issue(boDN, KindUser); err != nil {
		tb.Fatal(err)
	}
	if f.boProxy, err = Delegate(f.bo, time.Hour, false); err != nil {
		tb.Fatal(err)
	}
	return f
}

// stores returns a store that has already verified every honest chain
// of the fixture and one that has verified nothing.
func (f *memoFixture) stores(tb testing.TB) (warm, fresh *TrustStore) {
	tb.Helper()
	warm, fresh = NewTrustStore(f.ca.Certificate()), NewTrustStore(f.ca.Certificate())
	for _, cred := range []*Credential{f.proxy, f.boProxy} {
		if _, err := warm.Verify(cred, f.now); err != nil {
			tb.Fatalf("warming: %v", err)
		}
	}
	if got := warm.memo.len(); got != 5 { // two proxies, two users, the CA
		tb.Fatalf("warm memo holds %d signatures, want 5", got)
	}
	return warm, fresh
}

// signer returns the key that honestly signs certificate i of
// f.proxy's chain.
func (f *memoFixture) signer(i int) ed25519.PrivateKey {
	if i == 0 {
		return f.kate.Key
	}
	return f.ca.Credential().Key
}

func cloneChain(c *Credential) *Credential {
	out := &Credential{Key: c.Key}
	for _, cert := range c.Chain {
		cp := *cert
		cp.PublicKey = append([]byte(nil), cert.PublicKey...)
		cp.Signature = append([]byte(nil), cert.Signature...)
		if cert.Ext != nil {
			cp.Ext = map[string]string{}
			for k, v := range cert.Ext {
				cp.Ext[k] = v
			}
		}
		out.Chain = append(out.Chain, &cp)
	}
	return out
}

func (m *sigMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for i := range m.sets {
		for _, d := range m.sets[i] {
			if d != (sigDigest{}) {
				n++
			}
		}
	}
	return n
}

func mustSign(tb testing.TB, cert *Certificate, key ed25519.PrivateKey) {
	tb.Helper()
	if err := signCert(cert, key); err != nil {
		tb.Fatal(err)
	}
}

// fieldMutations change one signed field, or the signature, of a
// certificate in place.
var fieldMutations = []struct {
	name string
	do   func(*Certificate)
}{
	{"serial", func(c *Certificate) { c.Serial++ }},
	{"kind", func(c *Certificate) {
		if c.Kind == KindProxy {
			c.Kind = KindLimited
		} else {
			c.Kind = KindService
		}
	}},
	{"subject", func(c *Certificate) { c.Subject += "x" }},
	{"issuer", func(c *Certificate) { c.Issuer += "x" }},
	{"publicKey", func(c *Certificate) { c.PublicKey[7] ^= 0x10 }},
	{"publicKey-short", func(c *Certificate) { c.PublicKey = c.PublicKey[:3] }},
	{"publicKey-empty", func(c *Certificate) { c.PublicKey = nil }},
	{"notBefore", func(c *Certificate) { c.NotBefore = c.NotBefore.Add(-time.Second) }},
	{"notAfter", func(c *Certificate) { c.NotAfter = c.NotAfter.Add(time.Hour) }},
	{"ext", func(c *Certificate) { c.Ext = map[string]string{"role": "admin"} }},
	{"signature", func(c *Certificate) { c.Signature[0] ^= 1 }},
	{"signature-last", func(c *Certificate) { c.Signature[len(c.Signature)-1] ^= 0x80 }},
	{"signature-short", func(c *Certificate) { c.Signature = c.Signature[:63] }},
	{"signature-empty", func(c *Certificate) { c.Signature = nil }},
}

type memoCase struct {
	name string
	// build returns the chain to present and when; add installs an
	// anchor in both stores.
	build func(tb testing.TB, f *memoFixture, add func(*Certificate)) (*Credential, time.Time)
	want  error // nil: any error will do, as long as both stores agree
	ok    bool  // the chain must verify
}

func memoCases() []memoCase {
	cases := []memoCase{
		{name: "honest", ok: true, build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			return f.proxy, f.now
		}},
		{name: "honest-without-ca-cert", ok: true, build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			return &Credential{Chain: f.proxy.Chain[:2]}, f.now
		}},
		{name: "fresh-proxy-known-user", ok: true, build: func(tb testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			p, err := Delegate(f.kate, time.Hour, true)
			if err != nil {
				tb.Fatal(err)
			}
			return p, f.now
		}},
		{name: "signatures-swapped", want: ErrBadSignature, build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			c := cloneChain(f.proxy)
			c.Chain[0].Signature, c.Chain[1].Signature = c.Chain[1].Signature, c.Chain[0].Signature
			return c, f.now
		}},
		{name: "user-resigned-by-member", want: ErrBadSignature, build: func(tb testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			c := cloneChain(f.proxy)
			mustSign(tb, c.Chain[1], f.bo.Key)
			return c, f.now
		}},
		{name: "proxy-resigned-by-member", want: ErrBadSignature, build: func(tb testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			c := cloneChain(f.proxy)
			mustSign(tb, c.Chain[0], f.bo.Key)
			return c, f.now
		}},
		{name: "copied-signature-new-body", want: ErrBadSignature, build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			// Bo's key in Kate's proxy, under the signature Kate made
			// for her own.
			c := cloneChain(f.proxy)
			c.Chain[0].PublicKey = append([]byte(nil), f.boProxy.Leaf().PublicKey...)
			return c, f.now
		}},
		{name: "proxy-reparented-under-member", want: ErrBadProxy, build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			return &Credential{Chain: []*Certificate{f.proxy.Chain[0], f.bo.Chain[0], f.bo.Chain[1]}}, f.now
		}},
		{name: "memoized-proxy-on-forged-user", want: ErrBadSignature, build: func(tb testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			// Kate's real proxy (its signature is in the memo, under
			// Kate's key) above a "Kate" certificate carrying Bo's key.
			c := cloneChain(f.proxy)
			c.Chain[1].PublicKey = append([]byte(nil), f.bo.Leaf().PublicKey...)
			mustSign(tb, c.Chain[1], f.bo.Key)
			return c, f.now
		}},
		{name: "forged-user-and-its-proxy", want: ErrBadSignature, build: func(tb testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			// The same forged "Kate", now with a proxy that does verify
			// under the forged key: only the CA's signature is missing.
			c := cloneChain(f.proxy)
			c.Chain[1].PublicKey = append([]byte(nil), f.bo.Leaf().PublicKey...)
			mustSign(tb, c.Chain[1], f.bo.Key)
			mustSign(tb, c.Chain[0], f.bo.Key)
			return c, f.now
		}},
		{name: "member-issues-user", want: ErrUntrusted, build: func(tb testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			// Bo, an end entity, signs a certificate naming Kate and
			// presents it above his own (memoized) chain.
			fake := *f.kate.Leaf()
			fake.Issuer = boDN
			fake.PublicKey = f.bo.Leaf().PublicKey
			mustSign(tb, &fake, f.bo.Key)
			return &Credential{Chain: append([]*Certificate{&fake}, f.bo.Chain...)}, f.now
		}},
		{name: "expired-after-first-success", want: ErrExpired, build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			return f.proxy, f.proxy.Leaf().NotAfter.Add(time.Second)
		}},
		{name: "not-yet-valid", want: ErrExpired, build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			return f.proxy, f.proxy.Leaf().NotBefore.Add(-time.Second)
		}},
		{name: "anchor-replaced", want: ErrBadSignature, build: func(tb testing.TB, f *memoFixture, add func(*Certificate)) (*Credential, time.Time) {
			rekeyed, err := NewCA(caDN)
			if err != nil {
				tb.Fatal(err)
			}
			add(rekeyed.Certificate())
			return f.proxy, f.now
		}},
		{name: "anchor-replaced-no-ca-cert", want: ErrBadSignature, build: func(tb testing.TB, f *memoFixture, add func(*Certificate)) (*Credential, time.Time) {
			rekeyed, err := NewCA(caDN)
			if err != nil {
				tb.Fatal(err)
			}
			add(rekeyed.Certificate())
			return &Credential{Chain: f.proxy.Chain[:2]}, f.now
		}},
		{name: "anchor-short-key", want: ErrBadSignature, build: func(_ testing.TB, f *memoFixture, add func(*Certificate)) (*Credential, time.Time) {
			bad := *f.ca.Certificate()
			bad.PublicKey = bad.PublicKey[:3]
			add(&bad)
			return &Credential{Chain: f.proxy.Chain[:2]}, f.now
		}},
		{name: "self-made-ca", want: ErrUntrusted, build: func(tb testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			return selfMadeChain(tb), f.now
		}},
		{name: "nil-certificate", want: ErrNoCertificates, build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			return &Credential{Chain: []*Certificate{f.proxy.Chain[0], nil}}, f.now
		}},
		{name: "empty", want: ErrNoCertificates, build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
			return &Credential{}, f.now
		}},
	}
	for i := 0; i < 3; i++ {
		for _, m := range fieldMutations {
			i, m := i, m
			cases = append(cases, memoCase{
				name: fmt.Sprintf("flip-cert%d-%s", i, m.name),
				build: func(_ testing.TB, f *memoFixture, _ func(*Certificate)) (*Credential, time.Time) {
					c := cloneChain(f.proxy)
					m.do(c.Chain[i])
					return c, f.now
				},
			})
		}
	}
	return cases
}

// selfMadeChain is a proxy chain that is consistent in itself, every
// signature valid, under a CA nobody trusts.
func selfMadeChain(tb testing.TB) *Credential {
	tb.Helper()
	rogue, err := NewCA("/O=Rogue/CN=Evil CA")
	if err != nil {
		tb.Fatal(err)
	}
	user, err := rogue.Issue(kateDN, KindUser)
	if err != nil {
		tb.Fatal(err)
	}
	proxy, err := Delegate(user, time.Hour, false)
	if err != nil {
		tb.Fatal(err)
	}
	return proxy
}

func TestVerifyMemoDifferential(t *testing.T) {
	f := newMemoFixture(t)
	for _, c := range memoCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			warm, fresh := f.stores(t)
			cred, at := c.build(t, f, func(a *Certificate) { warm.Add(a); fresh.Add(a) })
			warmLen := warm.memo.len()
			// Twice: the second call meets whatever the first left.
			for pass := 0; pass < 2; pass++ {
				wid, werr := warm.Verify(cred, at)
				fid, ferr := fresh.Verify(cred, at)
				if wid != fid || fmt.Sprint(werr) != fmt.Sprint(ferr) {
					t.Fatalf("pass %d: warm store = (%q, %v), fresh store = (%q, %v)", pass, wid, werr, fid, ferr)
				}
				switch {
				case c.ok && (werr != nil || wid != kateDN):
					t.Fatalf("pass %d: honest chain = (%q, %v)", pass, wid, werr)
				case !c.ok && werr == nil:
					t.Fatalf("pass %d: hostile chain verified as %q", pass, wid)
				case c.want != nil && !errors.Is(werr, c.want):
					t.Fatalf("pass %d: error = %v, want %v", pass, werr, c.want)
				}
			}
			if !c.ok {
				if got := warm.memo.len(); got != warmLen {
					t.Errorf("a failed verification changed the warm memo: %d -> %d signatures", warmLen, got)
				}
				if got := fresh.memo.len(); got != 0 {
					t.Errorf("a failed verification memoized %d signatures", got)
				}
			}
		})
	}
}

// A chain whose every signature is good but whose root is not trusted
// fails last, at the anchor step, after the leaf signatures have been
// through ed25519.Verify. None of them may be remembered, or any peer
// could fill the table with certificates under keys it made up.
func TestVerifyMemoUnauthenticatedPeerCannotInsert(t *testing.T) {
	f := newMemoFixture(t)
	warm, fresh := f.stores(t)
	for _, ts := range []*TrustStore{warm, fresh} {
		before, checked := ts.memo.len(), ts.SigStats().Checks
		for i := 0; i < 8; i++ {
			if _, err := ts.Verify(selfMadeChain(t), f.now); !errors.Is(err, ErrUntrusted) {
				t.Fatalf("self-made chain = %v, want ErrUntrusted", err)
			}
		}
		if got := ts.SigStats().Checks - checked; got != 16 {
			t.Errorf("signatures checked before the anchor step = %d, want 16 (proxy and user of 8 chains)", got)
		}
		if got := ts.memo.len(); got != before {
			t.Errorf("memo grew from %d to %d signatures on untrusted chains", before, got)
		}
	}
}

func TestVerifyMemoHitsAndStats(t *testing.T) {
	f := newMemoFixture(t)
	ts := NewTrustStore(f.ca.Certificate())
	if _, err := ts.Verify(f.proxy, f.now); err != nil {
		t.Fatal(err)
	}
	if got := ts.SigStats(); got != (SigStats{Checks: 3}) {
		t.Errorf("first verification = %+v, want 3 checks and no hit", got)
	}
	if _, err := ts.Verify(f.proxy, f.now); err != nil {
		t.Fatal(err)
	}
	if got := ts.SigStats(); got != (SigStats{Checks: 6, MemoHits: 3}) {
		t.Errorf("repeat verification = %+v, want 6 checks, 3 hits", got)
	}
	// A new proxy of a known user pays for one signature, not three.
	again, err := Delegate(f.kate, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Verify(again, f.now); err != nil {
		t.Fatal(err)
	}
	if got := ts.SigStats(); got != (SigStats{Checks: 9, MemoHits: 5}) {
		t.Errorf("fresh proxy of a known user = %+v, want 9 checks, 5 hits", got)
	}
	// The digest is over what CheckSignature verifies: each memoized
	// certificate also passes the uncached primitive.
	for i, cert := range f.proxy.Chain {
		key := f.ca.Certificate().PublicKey
		if i == 0 {
			key = f.kate.Leaf().PublicKey
		}
		if err := cert.CheckSignature(key); err != nil {
			t.Errorf("certificate %d: CheckSignature = %v", i, err)
		}
	}
}

// The table is a fixed array: ten times its capacity in distinct
// signatures leaves it full, never larger, and still answering.
func TestSigMemoBounded(t *testing.T) {
	var m sigMemo
	digest := func(i int) sigDigest {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		return sha256.Sum256(b[:])
	}
	const n = 10 * sigMemoSlots
	for i := 0; i < n; i++ {
		m.add([]sigDigest{digest(i)})
		if !m.has(digest(i)) {
			t.Fatalf("digest %d missing right after its insert", i)
		}
	}
	if got, want := len(m.sets)*sigMemoWays, sigMemoSlots; got != want {
		t.Fatalf("table has %d slots, want %d", got, want)
	}
	if bytes := len(m.sets) * sigMemoWays * sha256.Size; bytes > 2<<20 {
		t.Errorf("table is %d bytes, want at most 2 MiB", bytes)
	}
	held := 0
	for i := 0; i < n; i++ {
		if m.has(digest(i)) {
			held++
		}
	}
	if held > sigMemoSlots || held < sigMemoSlots*9/10 {
		t.Errorf("table holds %d of %d inserted digests, want nearly all of its %d slots", held, n, sigMemoSlots)
	}
	// Re-adding what is held takes no second slot.
	before := m.len()
	for i := n - 100; i < n; i++ {
		m.add([]sigDigest{digest(i)})
	}
	if got := m.len(); got != before {
		t.Errorf("re-inserting held digests changed the size: %d -> %d", before, got)
	}
}

// Many distinct chains through Verify itself: each signature is paid
// for once and held once.
func TestVerifyMemoManyChains(t *testing.T) {
	f := newMemoFixture(t)
	ts := NewTrustStore(f.ca.Certificate())
	const users = 100
	chains := make([]*Credential, users)
	for i := range chains {
		user, err := f.ca.IssueWithKey(DN(fmt.Sprintf("/O=Grid/CN=user %d", i)), KindUser, KeyFromSeed(1, "user", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		if chains[i], err = DelegateWithKey(user, time.Hour, false, KeyFromSeed(1, "proxy", fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, c := range chains {
			if id, err := ts.Verify(c, f.now); err != nil || id != c.Identity() {
				t.Fatalf("pass %d chain %d = (%q, %v)", pass, i, id, err)
			}
		}
	}
	if got := ts.memo.len(); got > sigMemoSlots || got != 2*users+1 {
		t.Errorf("memo holds %d signatures, want %d", got, 2*users+1)
	}
	if st := ts.SigStats(); st.Checks != 6*users || st.MemoHits != 3*users+users-1 {
		t.Errorf("stats = %+v, want %d checks and %d hits", st, 6*users, 4*users-1)
	}
}

func TestVerifyMemoConcurrent(t *testing.T) {
	f := newMemoFixture(t)
	ts := NewTrustStore(f.ca.Certificate())
	hostile := cloneChain(f.proxy)
	hostile.Chain[0].Signature[3] ^= 4
	other, err := NewCA("/O=Grid/CN=Another CA")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (g + i) % 4 {
				case 0:
					ts.Add(other.Certificate())
				case 1:
					if _, err := ts.Verify(hostile, f.now); !errors.Is(err, ErrBadSignature) {
						t.Errorf("hostile chain = %v", err)
						return
					}
				case 2:
					if id, err := ts.Verify(f.boProxy, f.now); err != nil || id != boDN {
						t.Errorf("bo = (%q, %v)", id, err)
						return
					}
				default:
					if id, err := ts.Verify(f.proxy, f.now); err != nil || id != kateDN {
						t.Errorf("kate = (%q, %v)", id, err)
						return
					}
					_ = ts.SigStats()
				}
			}
		}()
	}
	wg.Wait()
	if got := ts.memo.len(); got != 5 {
		t.Errorf("memo holds %d signatures, want 5", got)
	}
}

// ed25519.Verify panics on a key that is not 32 bytes. Keys come out of
// certificates a peer wrote, so every verification entry point has to
// answer with an error instead.
func TestShortPublicKeyIsAnErrorNotAPanic(t *testing.T) {
	f := newMemoFixture(t)
	ts := NewTrustStore(f.ca.Certificate())

	parent := cloneChain(f.proxy)
	parent.Chain[1].PublicKey = parent.Chain[1].PublicKey[:3]
	if _, err := ts.Verify(parent, f.now); !errors.Is(err, ErrBadSignature) {
		t.Errorf("Verify with a 3-byte parent key = %v, want ErrBadSignature", err)
	}
	if err := f.proxy.Leaf().CheckSignature([]byte{1, 2, 3}); !errors.Is(err, ErrBadSignature) {
		t.Errorf("CheckSignature with a 3-byte key = %v, want ErrBadSignature", err)
	}

	// A validly delegated proxy whose own key is short: the chain is
	// good, the proof of possession cannot be.
	leaf := &Certificate{
		Serial: 7, Kind: KindProxy, Subject: kateDN.WithCN("proxy"), Issuer: kateDN,
		PublicKey: []byte{1, 2, 3}, NotBefore: f.now.Add(-time.Minute), NotAfter: f.now.Add(time.Hour),
	}
	mustSign(t, leaf, f.kate.Key)
	short := &Credential{Chain: append([]*Certificate{leaf}, f.kate.Chain...)}
	if _, err := ts.Verify(short, f.now); err != nil {
		t.Fatalf("chain with a short leaf key = %v (nothing verifies under the leaf key)", err)
	}
	if err := short.VerifyBy([]byte("nonce"), make([]byte, ed25519.SignatureSize)); !errors.Is(err, ErrBadSignature) {
		t.Errorf("VerifyBy with a 3-byte leaf key = %v, want ErrBadSignature", err)
	}

	as := &Assertion{VO: "nfc", Holder: kateDN, NotBefore: f.now.Add(-time.Minute), NotAfter: f.now.Add(time.Hour)}
	if err := SignAssertion(as, f.bo); err != nil {
		t.Fatal(err)
	}
	voCert := *f.bo.Leaf()
	voCert.PublicKey = voCert.PublicKey[:3]
	if err := VerifyAssertion(as, &voCert, kateDN, f.now); !errors.Is(err, ErrAssertionForged) {
		t.Errorf("VerifyAssertion with a 3-byte VO key = %v, want ErrAssertionForged", err)
	}
}

// FuzzVerifyMemoEquivalence drives byte-scripted edits of the honest
// chain (field changes, signature transplants, re-signing with the
// right or a wrong key, reordering, a choice of verification time)
// through one long-lived warm store and a store built for the input,
// and requires the same answer from both. Re-signing with the right key
// makes new valid certificates, so the warm store keeps learning while
// the fuzzer runs.
func FuzzVerifyMemoEquivalence(f *testing.F) {
	fx := newMemoFixture(f)
	warm, _ := fx.stores(f)
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0})          // flip the proxy's signature
	f.Add([]byte{1, 4, 0, 1, 14, 0}) // new key in the user certificate, re-signed by the CA
	f.Add([]byte{0, 15, 1})          // proxy re-signed by the wrong key
	f.Add([]byte{0, 16, 1})          // signatures transplanted
	f.Add([]byte{2, 5, 0, 0, 18, 3}) // short CA key, verified after expiry
	f.Fuzz(func(t *testing.T, script []byte) {
		c := cloneChain(fx.proxy)
		at := fx.now
		for ; len(script) >= 3; script = script[3:] {
			i, op, arg := int(script[0])%len(c.Chain), int(script[1])%20, int(script[2])
			cert := c.Chain[i]
			switch {
			case op < len(fieldMutations):
				if len(cert.PublicKey) > 7 && len(cert.Signature) > 0 {
					fieldMutations[op].do(cert)
				}
			case op == 14:
				mustSign(t, cert, fx.signer(i))
			case op == 15:
				mustSign(t, cert, fx.bo.Key)
			case op == 16:
				j := arg % len(c.Chain)
				cert.Signature, c.Chain[j].Signature = c.Chain[j].Signature, cert.Signature
			case op == 17:
				j := arg % len(c.Chain)
				c.Chain[i], c.Chain[j] = c.Chain[j], c.Chain[i]
			case op == 18:
				at = fx.now.Add(time.Duration(arg-1) * time.Hour)
			case op == 19 && len(c.Chain) > 1:
				c.Chain = append(c.Chain[:i], c.Chain[i+1:]...)
			}
		}
		fresh := NewTrustStore(fx.ca.Certificate())
		wid, werr := warm.Verify(c, at)
		fid, ferr := fresh.Verify(c, at)
		if wid != fid || fmt.Sprint(werr) != fmt.Sprint(ferr) {
			t.Fatalf("warm store = (%q, %v), fresh store = (%q, %v)", wid, werr, fid, ferr)
		}
		if got := warm.memo.len(); got > sigMemoSlots {
			t.Fatalf("memo holds %d signatures, more than its %d slots", got, sigMemoSlots)
		}
	})
}
