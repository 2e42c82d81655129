package gridauth

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridauth/internal/core"
)

// writeFiles writes each name -> content pair into a fresh directory and
// returns a function resolving a name to its path.
func writeFiles(t *testing.T, files map[string]string) func(name string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return func(name string) string { return filepath.Join(dir, name) }
}

// daemonResource assembles a resource from a cmd/gatekeeper command
// line with the steps of that command's run — translate the flags,
// build, apply -callout-config — on fab in place of the state
// directory's fabric. The resource is not started.
func daemonResource(t *testing.T, fab *Fabric, args ...string) (*Resource, ResourceConfig) {
	t.Helper()
	fs := flag.NewFlagSet("gatekeeper", flag.ContinueOnError)
	flags := RegisterGatekeeperFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := flags.ResourceConfig()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := cfg.AuditLog.Close(); err != nil {
			t.Errorf("audit close: %v", err)
		}
	})
	// The policy files have been read; a build that went back to them
	// would fail.
	for _, path := range []string{flags.VOPolicy, flags.LocalPolicy} {
		if path != "" {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	cred, err := fab.IssueService("/O=Grid/CN=gatekeeper/local")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewResource(cred, fab.Trust, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(res.Close)
	if err := flags.LoadCalloutConfig(res.Registry); err != nil {
		t.Fatal(err)
	}
	return res, cfg
}

// TestCalloutConfigOptionsTuneOnlyTheirType: a -callout-config
// "options" line tunes the callout type it names and leaves the other
// at the zero value: there is no flag-set base beneath it.
func TestCalloutConfigOptionsTuneOnlyTheirType(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Flags CA")
	if err != nil {
		t.Fatal(err)
	}
	path := writeFiles(t, map[string]string{
		"gridmap":   `"/O=Grid/CN=Alice" alice` + "\n",
		"vo.policy": `/O=Grid/CN=Alice: &(action = start)(executable = sim)` + "\n",
		"callouts":  core.CalloutJobManager + " options pdp-timeout=250ms retries=2\n",
	})
	res, _ := daemonResource(t, fab,
		"-gridmap", path("gridmap"), "-mode", "callout", "-vo-policy", path("vo.policy"),
		"-callout-config", path("callouts"))
	want := core.CalloutOptions{PDPTimeout: 250 * time.Millisecond, Retries: 2}
	if jm := res.Registry.Options(core.CalloutJobManager); jm != want {
		t.Errorf("job-manager callout options = %+v, want %+v from its options line", jm, want)
	}
	if gk := res.Registry.Options(core.CalloutGatekeeper); gk != (core.CalloutOptions{}) {
		t.Errorf("gatekeeper callout options = %+v, want none: no line names it", gk)
	}
}

// TestGatekeeperFlagsModeAndPlacement: -mode and -placement take
// exactly their documented values. Anything else, and a -callout-config
// the legacy model would never consult, fails the translation instead
// of silently selecting the default model.
func TestGatekeeperFlagsModeAndPlacement(t *testing.T) {
	path := writeFiles(t, map[string]string{
		"gridmap":  `"/O=Grid/CN=Alice" alice` + "\n",
		"callouts": core.CalloutJobManager + " options pdp-timeout=2s\n",
	})
	cases := []struct {
		args      []string
		mode      Mode
		placement Placement
		refused   string // a substring of the error; "" accepts
	}{
		{nil, ModeLegacy, PlacementJobManager, ""},
		{[]string{"-mode", "callout"}, ModeCallout, PlacementJobManager, ""},
		{[]string{"-mode", "callout", "-placement", "gatekeeper"}, ModeCallout, PlacementGatekeeper, ""},
		{[]string{"-mode", "legacy", "-placement", "job-manager"}, ModeLegacy, PlacementJobManager, ""},
		{[]string{"-mode", "Callout"}, 0, 0, `-mode "Callout"`},
		{[]string{"-mode", "calout"}, 0, 0, `-mode "calout"`},
		{[]string{"-mode", "callout", "-placement", "gatekeepr"}, 0, 0, `-placement "gatekeepr"`},
		{[]string{"-mode", "callout", "-placement", "jobmanager"}, 0, 0, `-placement "jobmanager"`},
		{[]string{"-callout-config", path("callouts")}, 0, 0, "-callout-config needs -mode callout"},
		{[]string{"-mode", "legacy", "-callout-config", path("callouts")}, 0, 0, "-callout-config needs -mode callout"},
		{[]string{"-mode", "Callout", "-placement", "gatekeepr", "-callout-config", path("callouts")}, 0, 0, `-mode "Callout"`},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("gatekeeper", flag.ContinueOnError)
		flags := RegisterGatekeeperFlags(fs)
		if err := fs.Parse(append([]string{"-gridmap", path("gridmap")}, tc.args...)); err != nil {
			t.Fatal(err)
		}
		cfg, err := flags.ResourceConfig()
		if err == nil {
			if err := cfg.AuditLog.Close(); err != nil {
				t.Errorf("%v: audit close: %v", tc.args, err)
			}
		}
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.refused == "" && (cfg.Mode != tc.mode || cfg.Placement != tc.placement):
			t.Errorf("%v: mode %v, placement %v; want %v, %v", tc.args, cfg.Mode, cfg.Placement, tc.mode, tc.placement)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("%v: err = %v, want a refusal naming %s", tc.args, err, tc.refused)
		}
	}
}

// TestGatekeeperFlagsFeedPolicyFindings: a daemon-built resource runs
// its policy files through the static analyzer, so policy_findings_total
// moves for the shadowed grant below.
func TestGatekeeperFlagsFeedPolicyFindings(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Flags CA")
	if err != nil {
		t.Fatal(err)
	}
	path := writeFiles(t, map[string]string{
		"gridmap":   `"/O=Grid/CN=Alice" alice` + "\n",
		"vo.policy": `/O=Grid/CN=Alice: &(action = start)(executable = sim) &(action = start)(executable = sim)(count<8)` + "\n",
	})
	_, cfg := daemonResource(t, fab,
		"-gridmap", path("gridmap"), "-mode", "callout", "-vo-policy", path("vo.policy"),
		"-metrics-addr", "127.0.0.1:0")
	if got := cfg.Metrics.PolicyFindings.Load(); got == 0 {
		t.Error("policy_findings_total = 0 for a policy with a shadowed grant")
	}
}
