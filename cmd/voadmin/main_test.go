package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gridauth/internal/gsi"
	"gridauth/internal/policy"
)

// newStateDir prepares a state directory with a fabric CA, as the
// gatekeeper command would.
func newStateDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ca, err := gsi.NewCA("/O=Grid/CN=Test Fabric CA")
	if err != nil {
		t.Fatal(err)
	}
	if err := gsi.SaveCertificate(ca.Certificate(), filepath.Join(dir, "ca.cert")); err != nil {
		t.Fatal(err)
	}
	if err := gsi.SaveCredential(ca.Credential(), filepath.Join(dir, "ca.cred")); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestVOAdminLifecycle(t *testing.T) {
	dir := newStateDir(t)
	kate := "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey"

	steps := [][]string{
		{"-state", dir, "-vo", "NFC", "init"},
		{"-state", dir, "-vo", "NFC", "jobtag", "add", "NFC", "fusion runs", "admin"},
		{"-state", dir, "-vo", "NFC", "jobtag", "add", "ADS", "app dev", "admin"},
		{"-state", dir, "-vo", "NFC", "member", "add", kate, "analyst,admin", "NFC,ADS"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}

	// Issue an assertion and verify it against the VO credential.
	assertPath := filepath.Join(dir, "kate.assertion")
	if err := run([]string{"-state", dir, "-vo", "NFC", "assert", kate, assertPath}); err != nil {
		t.Fatal(err)
	}
	a, err := gsi.LoadAssertion(assertPath)
	if err != nil {
		t.Fatal(err)
	}
	voCred, err := gsi.LoadCredential(filepath.Join(dir, "vo-NFC.cred"))
	if err != nil {
		t.Fatal(err)
	}
	if err := gsi.VerifyAssertion(a, voCred.Leaf(), gsi.DN(kate), time.Now()); err != nil {
		t.Fatalf("issued assertion does not verify: %v", err)
	}
	if !slices.Contains(a.Roles, "admin") || !a.AllowsJobtag("NFC") {
		t.Errorf("assertion contents: %+v", a)
	}

	// Generate the policy and check it parses and grants the analyst.
	polPath := filepath.Join(dir, "vo.policy")
	if err := run([]string{"-state", dir, "-vo", "NFC", "policy", polPath}); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(polPath)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.ParseString(string(text), "VO:NFC")
	if err != nil {
		t.Fatalf("generated policy invalid: %v\n%s", err, text)
	}
	if len(pol.Statements) < 2 {
		t.Errorf("policy too small:\n%s", text)
	}
	if !strings.Contains(string(text), "TRANSP") {
		t.Errorf("analyst template missing:\n%s", text)
	}
}

func TestVOAdminErrors(t *testing.T) {
	dir := newStateDir(t)
	if err := run([]string{"-state", dir, "-vo", "NFC", "init"}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-state", dir, "-vo", "NFC", "frobnicate"},
		{"-state", dir, "-vo", "NFC", "jobtag", "add", "only-name"},
		{"-state", dir, "-vo", "NFC", "member", "add", "not-a-dn", "analyst", "NFC"},
		{"-state", dir, "-vo", "NFC", "assert", "/O=Grid/CN=Nobody", filepath.Join(dir, "x")},
		{"-state", dir, "-vo", "OTHER", "policy", filepath.Join(dir, "y")}, // uninitialized VO
		{},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
	// Duplicate jobtag.
	if err := run([]string{"-state", dir, "-vo", "NFC", "jobtag", "add", "NFC", "d", "admin"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-state", dir, "-vo", "NFC", "jobtag", "add", "NFC", "d", "admin"}); err == nil {
		t.Errorf("duplicate jobtag accepted")
	}
}
