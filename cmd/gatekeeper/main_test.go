package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
)

const testMap = `
"/O=Grid/CN=Alice" alice
"/O=Grid/CN=Bob" bob,batch
`

func TestBootstrapFabricFreshAndReload(t *testing.T) {
	dir := t.TempDir()
	gmap, err := gridmap.ParseString(testMap)
	if err != nil {
		t.Fatal(err)
	}
	ca, gkCred, trust, err := bootstrapFabric(dir, gmap)
	if err != nil {
		t.Fatal(err)
	}
	if ca == nil {
		t.Fatalf("fresh bootstrap returned no CA")
	}
	if _, err := trust.Verify(gkCred, time.Now()); err != nil {
		t.Fatalf("gatekeeper credential does not verify: %v", err)
	}

	// Every grid-mapfile identity received a credential that verifies.
	entries, err := os.ReadDir(filepath.Join(dir, "users"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("user credentials = %d, want 2", len(entries))
	}
	seen := map[gsi.DN]bool{}
	for _, e := range entries {
		cred, err := gsi.LoadCredential(filepath.Join(dir, "users", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		id, err := trust.Verify(cred, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		seen[id] = true
	}
	if !seen["/O=Grid/CN=Alice"] || !seen["/O=Grid/CN=Bob"] {
		t.Errorf("identities = %v", seen)
	}

	// Reload path: same directory, no CA object but working credentials.
	ca2, gkCred2, trust2, err := bootstrapFabric(dir, gmap)
	if err != nil {
		t.Fatal(err)
	}
	if ca2 != nil {
		t.Errorf("reload should not mint a new CA")
	}
	if _, err := trust2.Verify(gkCred2, time.Now()); err != nil {
		t.Fatalf("reloaded gatekeeper credential: %v", err)
	}
	if gkCred2.Identity() != gkCred.Identity() {
		t.Errorf("gatekeeper identity changed across reload")
	}
}

func TestRunValidation(t *testing.T) {
	gm := filepath.Join(t.TempDir(), "gridmap")
	if err := os.WriteFile(gm, []byte(testMap), 0o600); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                      // missing state+gridmap
		{"-state", t.TempDir()}, // missing gridmap
		{"-gridmap", gm},        // missing state
		{"-state", t.TempDir(), "-gridmap", filepath.Join(t.TempDir(), "nope")}, // unreadable
		{"-state", t.TempDir(), "-gridmap", gm, "-mode", "callout"},             // callout w/o policy
		{"-state", t.TempDir(), "-gridmap", gm, "-authz-cache"},                 // removed: tuning is an options line
		{"-state", t.TempDir(), "-gridmap", gm, "-mode", "Callout"},             // unknown mode
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}
