package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

const voPolicy = `
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = test1)(jobtag = ADS)(count<4)
`

const localPolicy = `
/O=Grid: &(action = start)(queue != fast)
`

func TestPermitExitZero(t *testing.T) {
	vo := writeTemp(t, "vo.policy", voPolicy)
	local := writeTemp(t, "local.policy", localPolicy)
	code, err := run([]string{
		"-policy", vo, "-policy", local,
		"-subject", "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu",
		"-action", "start",
		"-rsl", `&(executable=test1)(jobtag=ADS)(count=2)`,
	})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
}

func TestDenyExitOne(t *testing.T) {
	vo := writeTemp(t, "vo.policy", voPolicy)
	code, err := run([]string{
		"-policy", vo,
		"-subject", "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu",
		"-rsl", `&(executable=test1)(jobtag=ADS)(count=9)`,
	})
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v", code, err)
	}
}

func TestLint(t *testing.T) {
	vo := writeTemp(t, "vo.policy", voPolicy)
	code, err := run([]string{"-policy", vo, "-lint"})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	bad := writeTemp(t, "bad.policy", "((broken")
	code, err = run([]string{"-policy", bad, "-lint"})
	if code != 2 || err == nil {
		t.Fatalf("bad policy: code=%d err=%v", code, err)
	}
}

func TestStatsOnly(t *testing.T) {
	vo := writeTemp(t, "vo.policy", voPolicy)
	local := writeTemp(t, "local.policy", localPolicy)
	// Stats-only run: compiles and reports without requiring -subject.
	code, err := run([]string{"-policy", vo, "-policy", local, "-stats"})
	if err != nil || code != 0 {
		t.Fatalf("stats-only: code=%d err=%v", code, err)
	}
	// -stats combined with an evaluation still decides the request.
	code, err = run([]string{
		"-policy", vo, "-stats",
		"-subject", "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu",
		"-rsl", `&(executable=test1)(jobtag=ADS)(count=2)`,
	})
	if err != nil || code != 0 {
		t.Fatalf("stats+eval: code=%d err=%v", code, err)
	}
}

func TestUsageErrors(t *testing.T) {
	vo := writeTemp(t, "vo.policy", voPolicy)
	cases := [][]string{
		{},                                      // no policy
		{"-policy", vo},                         // no subject
		{"-policy", vo, "-subject", "nonsense"}, // bad DN
		{"-policy", vo, "-subject", "/O=Grid/CN=x", "-rsl", "(("},           // bad RSL
		{"-policy", vo, "-subject", "/O=Grid/CN=x", "-combine", "weirdest"}, // bad mode
		{"-policy", filepath.Join(t.TempDir(), "missing")},                  // unreadable
	}
	for i, args := range cases {
		if code, _ := run(args); code != 2 {
			t.Errorf("case %d: code = %d, want 2", i, code)
		}
	}
}

// capture runs fn with os.Stdout redirected and returns what it wrote.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestAnalyzeClean(t *testing.T) {
	vo := writeTemp(t, "vo.policy", voPolicy)
	code, err := run([]string{"-policy", vo, "-analyze", "-actions", ""})
	if err != nil || code != 0 {
		t.Fatalf("clean policy: code=%d err=%v", code, err)
	}
}

const escalationPolicy = `
/O=Grid/O=VO/CN=Admin:
  &(action = grant)(grantee = self)
`

func TestAnalyzeFailOn(t *testing.T) {
	pol := writeTemp(t, "esc.policy", escalationPolicy)
	var code int
	var err error
	out := capture(t, func() { code, err = run([]string{"-policy", pol, "-analyze", "-actions", ""}) })
	if err != nil || code != 1 {
		t.Fatalf("escalation error should gate: code=%d err=%v\n%s", code, err, out)
	}
	// Findings report file:line positions (line 3 holds the set).
	if !strings.Contains(out, pol+":3: error: escalation:") {
		t.Fatalf("finding missing file:line position:\n%s", out)
	}
	if code, err = run([]string{"-policy", pol, "-analyze", "-actions", "", "-fail-on", "none"}); err != nil || code != 0 {
		t.Fatalf("-fail-on none: code=%d err=%v", code, err)
	}
	if code, _ = run([]string{"-policy", pol, "-analyze", "-fail-on", "sometimes"}); code != 2 {
		t.Fatalf("bad -fail-on: code=%d", code)
	}
}

func TestAnalyzeJSON(t *testing.T) {
	pol := writeTemp(t, "esc.policy", escalationPolicy)
	var code int
	out := capture(t, func() { code, _ = run([]string{"-policy", pol, "-analyze", "-json", "-actions", ""}) })
	if code != 1 {
		t.Fatalf("code=%d", code)
	}
	var rep struct {
		Findings []struct {
			Class    string `json:"class"`
			Severity string `json:"severity"`
			Line     int    `json:"line"`
		} `json:"findings"`
		Sources []string `json:"sources"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Class != "escalation" ||
		rep.Findings[0].Severity != "error" || rep.Findings[0].Line != 3 || len(rep.Sources) != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestAnalyzeLocalConflict(t *testing.T) {
	vo := writeTemp(t, "vo.policy", `
/O=Grid/O=Globus/OU=acme.org/CN=Dave: &(action = start)(jobtag = HPC)
`)
	site := writeTemp(t, "site.policy", `
/O=Grid/O=Globus/OU=acme.org: &(action = start)(jobtag != HPC)
`)
	var code int
	out := capture(t, func() {
		code, _ = run([]string{"-policy", vo, "-policy", site, "-analyze", "-actions", "", "-local", site})
	})
	if code != 1 || !strings.Contains(out, "conflict") {
		t.Fatalf("conflict not reported: code=%d\n%s", code, out)
	}
	// Without -local the site file is not a local source: no conflict.
	code, _ = run([]string{"-policy", vo, "-policy", site, "-analyze", "-actions", ""})
	if code != 0 {
		t.Fatalf("without -local: code=%d", code)
	}
}

func TestCombineModes(t *testing.T) {
	vo := writeTemp(t, "vo.policy", voPolicy)
	local := writeTemp(t, "local.policy", localPolicy)
	// permit-overrides: VO grant wins even with a second denying source.
	deny := writeTemp(t, "deny.policy", `
/O=Grid: &(action = start)(executable = nothing-matches-this)
`)
	code, err := run([]string{
		"-policy", vo, "-policy", local, "-policy", deny,
		"-combine", "permit-overrides",
		"-subject", "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu",
		"-rsl", `&(executable=test1)(jobtag=ADS)(count=2)`,
	})
	if err != nil || code != 0 {
		t.Fatalf("permit-overrides: code=%d err=%v", code, err)
	}
	for _, mode := range []string{"require-all", "deny-overrides", "first-applicable"} {
		code, err := run([]string{
			"-policy", vo, "-combine", mode,
			"-subject", "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu",
			"-rsl", `&(executable=test1)(jobtag=ADS)(count=2)`,
		})
		if err != nil || code != 0 {
			t.Fatalf("%s: code=%d err=%v", mode, code, err)
		}
	}
}
