package gridauth

import (
	"flag"
	"os"
	"path/filepath"
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

// TestGatekeeperFlagsOptionsPrecedence: a tuning flag is the base for
// both callout types, and a -callout-config "options" line overrides it
// for the key and the callout type it names, nothing else.
func TestGatekeeperFlagsOptionsPrecedence(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Flags CA")
	if err != nil {
		t.Fatal(err)
	}
	path := writeFiles(t, map[string]string{
		"gridmap":   `"/O=Grid/CN=Alice" alice` + "\n",
		"vo.policy": `/O=Grid/CN=Alice: &(action = start)(executable = sim)` + "\n",
		"callouts":  core.CalloutJobManager + " options pdp-timeout=250ms\n",
	})
	res, _ := daemonResource(t, fab,
		"-gridmap", path("gridmap"), "-mode", "callout", "-vo-policy", path("vo.policy"),
		"-pdp-timeout", "1s", "-authz-retries", "2", "-callout-config", path("callouts"))
	jm, gk := res.Registry.Options(core.CalloutJobManager), res.Registry.Options(core.CalloutGatekeeper)
	if jm.PDPTimeout != 250*time.Millisecond || gk.PDPTimeout != time.Second {
		t.Errorf("pdp-timeout = %v on the job-manager callout, %v on the gatekeeper callout; want 250ms (config line) and 1s (flag)",
			jm.PDPTimeout, gk.PDPTimeout)
	}
	if jm.Retries != 2 || gk.Retries != 2 {
		t.Errorf("retries = %d / %d, want the flag's 2 on both: the config line did not name that key", jm.Retries, gk.Retries)
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
