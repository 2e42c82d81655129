package gridauth

import (
	"encoding/json"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gram"
	"gridauth/internal/resilience"
)

// justification names why a settable value exists: a BENCHMARK.json
// workload that sets it, a test (or benchmark) that needs it, an
// example program CI runs, a script CI runs, another ledger value (or
// an unexported test seam) it only forwards, or a deployment fact (an
// address, a path, a credential) no default can supply.
type justification struct{ kind, ref, sets string }

func inWorkload(name string) justification { return justification{kind: "workload", ref: name} }
func inTest(name string) justification     { return justification{kind: "test", ref: name} }
func inExample(dir string) justification   { return justification{kind: "example", ref: dir} }
func forwards(value string) justification  { return justification{kind: "forwards", ref: value} }
func deployment(why string) justification  { return justification{kind: "deployment", ref: why} }

// inScript: the CI-run script passes the value, whose text as the
// script writes it is sets.
func inScript(script, sets string) justification {
	return justification{kind: "script", ref: script, sets: sets}
}

// settableValues is the ledger of every value a caller can set to tune
// or wire a resource: the fields of gridauth.ResourceConfig, gram.Config,
// core.CalloutOptions (one per "options" key), resilience.Policy and resilience.BreakerConfig, and every
// cmd/gatekeeper flag, audit flags included. TestSettableValues diffs
// it against the code, so the count is computed, never typed. A row
// cites a test only when no non-test caller sets the value.
var settableValues = map[string]justification{
	"ResourceConfig.Name":              deployment("host name in the gatekeeper's service DN"),
	"ResourceConfig.CPUs":              inWorkload("manage-reuse"),
	"ResourceConfig.Mode":              inWorkload("manage-reuse"),
	"ResourceConfig.Placement":         inExample("examples/management"),
	"ResourceConfig.GridMap":           inWorkload("manage-reuse"),
	"ResourceConfig.SharedGridMap":     inWorkload("connect-cold"),
	"ResourceConfig.VOPolicy":          inExample("examples/quickstart"),
	"ResourceConfig.LocalPolicy":       inExample("examples/multisource"),
	"ResourceConfig.PolicyStores":      inWorkload("manage-reuse"),
	"ResourceConfig.Follower":          forwards("-cluster-follow"),
	"ResourceConfig.VOs":               inExample("examples/fusioncollab"),
	"ResourceConfig.AssertionIssuers":  inExample("examples/multisource"),
	"ResourceConfig.ExtraPDPs":         inExample("examples/multisource"),
	"ResourceConfig.Allocation":        inTest("TestVOAllocationOnResource"),
	"ResourceConfig.DynamicAccounts":   inExample("examples/multisource"),
	"ResourceConfig.AuditLog":          inWorkload("manage-reuse"),
	"ResourceConfig.Metrics":           inWorkload("manage-reuse"),
	"ResourceConfig.DecisionTraces":    forwards("-metrics-addr"),
	"ResourceConfig.Sandbox":           inExample("examples/multisource"),
	"ResourceConfig.TamperJMI":         inExample("examples/management"),
	"ResourceConfig.SessionTicketRing": forwards("-cluster-publish"),
	"ResourceConfig.Addr":              deployment("listen address; cluster nodes pin theirs"),
	"ResourceConfig.ConnWorkers":       inWorkload("manage-reuse"),

	"gram.Config.Credential":  deployment("the gatekeeper's service credential"),
	"gram.Config.Trust":       deployment("the trust anchors clients are verified against"),
	"gram.Config.VOCerts":     forwards("ResourceConfig.VOs"),
	"gram.Config.GridMap":     forwards("ResourceConfig.GridMap"),
	"gram.Config.Accounts":    forwards("ResourceConfig.DynamicAccounts"),
	"gram.Config.Registry":    forwards("ResourceConfig.VOPolicy"),
	"gram.Config.Audit":       forwards("ResourceConfig.AuditLog"),
	"gram.Config.Mode":        forwards("ResourceConfig.Mode"),
	"gram.Config.Placement":   forwards("ResourceConfig.Placement"),
	"gram.Config.Cluster":     forwards("ResourceConfig.CPUs"),
	"gram.Config.TamperJMI":   forwards("ResourceConfig.TamperJMI"),
	"gram.Config.Allocation":  forwards("ResourceConfig.Allocation"),
	"gram.Config.TicketRing":  forwards("ResourceConfig.SessionTicketRing"),
	"gram.Config.Jobs":        forwards("ResourceConfig.shared"),
	"gram.Config.ConnWorkers": forwards("ResourceConfig.ConnWorkers"),
	"gram.Config.Metrics":     forwards("ResourceConfig.Metrics"),

	"CalloutOptions.PDPTimeout":       inScript("scripts/daemon-smoke.sh", "pdp-timeout="),
	"CalloutOptions.Retries":          inScript("scripts/daemon-smoke.sh", "retries="),
	"CalloutOptions.RetryBackoff":     inTest("TestChaosSoak"),
	"CalloutOptions.Breaker":          inScript("scripts/daemon-smoke.sh", "breaker="),
	"CalloutOptions.BreakerThreshold": inTest("TestChaosSoak"),
	"CalloutOptions.BreakerCooldown":  inTest("TestChaosSoak"),

	"resilience.Policy.Attempts":             forwards("CalloutOptions.Retries"),
	"resilience.Policy.BaseDelay":            forwards("CalloutOptions.RetryBackoff"),
	"resilience.Policy.MaxDelay":             inTest("TestClusterSoak"),
	"resilience.BreakerConfig.Threshold":     forwards("CalloutOptions.BreakerThreshold"),
	"resilience.BreakerConfig.Cooldown":      forwards("CalloutOptions.BreakerCooldown"),
	"resilience.BreakerConfig.OnStateChange": forwards("ResourceConfig.AuditLog"),

	"-listen":           deployment("listen address"),
	"-state":            deployment("credential directory"),
	"-gridmap":          deployment("grid-mapfile path"),
	"-vo-policy":        deployment("VO policy path"),
	"-local-policy":     deployment("resource owner policy path"),
	"-callout-config":   deployment("callout configuration path: PDP bindings and options lines"),
	"-mode":             inScript("scripts/daemon-smoke.sh", "-mode callout"),
	"-placement":        inTest("TestGatekeeperFlagsModeAndPlacement"),
	"-cpus":             forwards("ResourceConfig.CPUs"),
	"-dynamic-accounts": forwards("ResourceConfig.DynamicAccounts"),
	"-tick":             deployment("rate of the simulated scheduler's clock, the daemon's only clock"),
	"-cluster-publish":  deployment("replication listen address"),
	"-cluster-follow":   deployment("publisher address"),
	"-conn-workers":     forwards("ResourceConfig.ConnWorkers"),
	"-metrics-addr":     deployment("observability listen address"),
	"-pprof":            deployment("profiling handlers on the -metrics-addr server"),
	"-audit-dir":        deployment("sealed audit segment directory"),
	"-audit-key":        deployment("audit seal key"),
	"-audit-segment":    inTest("TestPipelineConcurrentAppendAcrossRotation"),
	"-audit-mode":       inTest("TestPipelineDropModeShedsAndCounts"),
}

// settableInCode enumerates the values the code lets a caller set: by
// reflection over the configuration structs and by visiting the
// gatekeeper's flag set.
func settableInCode() ([]string, *flag.FlagSet) {
	var names []string
	for prefix, v := range map[string]any{
		"ResourceConfig.":           ResourceConfig{},
		"gram.Config.":              gram.Config{},
		"CalloutOptions.":           core.CalloutOptions{},
		"resilience.Policy.":        resilience.Policy{},
		"resilience.BreakerConfig.": resilience.BreakerConfig{},
	} {
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			if rt.Field(i).IsExported() {
				names = append(names, prefix+rt.Field(i).Name)
			}
		}
	}
	fs := flag.NewFlagSet("gatekeeper", flag.ContinueOnError)
	RegisterGatekeeperFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { names = append(names, "-"+f.Name) })
	sort.Strings(names)
	return names, fs
}

// TestSettableValues: every settable value has a ledger row, every row
// names a value that exists, and every row's justification resolves —
// the workload is in BENCHMARK.json, the test and the example exist,
// a forwarded value is itself in the ledger — and the tuning table
// names only knobs that exist.
func TestSettableValues(t *testing.T) {
	names, fs := settableInCode()
	inCode := map[string]bool{}
	for _, n := range names {
		inCode[n] = true
		if _, ok := settableValues[n]; !ok {
			t.Errorf("%s is settable but has no ledger row: name what justifies it, or delete it", n)
		}
	}
	for n := range settableValues {
		if !inCode[n] {
			t.Errorf("stale ledger row %s: no such field or flag", n)
		}
	}
	t.Logf("%d settable values", len(names))

	workloads := benchmarkWorkloads(t)
	tests := testFunctions(t)
	ciScripts := map[string]bool{}
	for _, m := range regexp.MustCompile(`scripts/[\w.-]+`).FindAllString(readFile(t, ".github/workflows/ci.yml"), -1) {
		ciScripts[m] = true
	}
	for n, j := range settableValues {
		var ok bool
		switch j.kind {
		case "workload":
			ok = workloads[j.ref]
		case "test":
			ok = tests[j.ref]
		case "example":
			_, err := os.Stat(filepath.Join(j.ref, "main.go"))
			ok = err == nil
		case "forwards":
			_, ok = settableValues[j.ref]
			ok = (ok || isSeam(j.ref)) && j.ref != n
		case "script":
			ok = ciScripts[j.ref] && strings.Contains(readFile(t, j.ref), j.sets)
		case "deployment":
			ok = j.ref != ""
		}
		if !ok {
			t.Errorf("%s: %s %q does not resolve", n, j.kind, j.ref)
		}
	}
	t.Run("tuning table", func(t *testing.T) { checkTuningTable(t, fs) })
}

// isSeam reports whether name is "ResourceConfig.x" for an unexported
// field x: a test seam, set by no caller outside the package's tests.
func isSeam(name string) bool {
	field, ok := strings.CutPrefix(name, "ResourceConfig.")
	f, found := reflect.TypeOf(ResourceConfig{}).FieldByName(field)
	return ok && found && !f.IsExported()
}

// readFile returns the repository file at path.
func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkTuningTable: every flag and "options" key the tuning table of
// docs/PERFORMANCE.md names exists, and so does every
// ResourceConfig, audit.Config and core.CalloutOptions field it names.
func checkTuningTable(t *testing.T, fs *flag.FlagSet) {
	_, table, ok := strings.Cut(readFile(t, "docs/PERFORMANCE.md"), "\n## Tuning table\n")
	if !ok {
		t.Fatal("docs/PERFORMANCE.md has no Tuning table section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	code := regexp.MustCompile("`([^`]+)`")
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.HasPrefix(cells[1], "---") || strings.TrimSpace(cells[1]) == "knob" {
			continue
		}
		rows++
		for _, m := range code.FindAllStringSubmatch(cells[2], -1) {
			name := m[1]
			if strings.HasPrefix(name, "-") {
				if fs.Lookup(name[1:]) == nil {
					t.Errorf("tuning table names flag %s, which cmd/gatekeeper does not define", name)
				}
				continue
			}
			err := core.NewRegistry().LoadConfig(strings.NewReader("x options " + name + "=probe"))
			if err == nil || strings.Contains(err.Error(), "unknown option") || strings.Contains(err.Error(), "was removed") {
				t.Errorf("tuning table names options key %q, which LoadConfig does not accept", name)
			}
		}
		for _, m := range code.FindAllStringSubmatch(cells[3], -1) {
			for prefix, v := range map[string]any{
				"ResourceConfig.":      ResourceConfig{},
				"audit.Config.":        audit.Config{},
				"core.CalloutOptions.": core.CalloutOptions{},
			} {
				if field, ok := strings.CutPrefix(m[1], prefix); ok {
					if f, found := reflect.TypeOf(v).FieldByName(field); !found || !f.IsExported() {
						t.Errorf("tuning table names %s, which is not a settable field", m[1])
					}
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("tuning table has no rows")
	}
}

// benchmarkWorkloads returns the workload names BENCHMARK.json declares.
func benchmarkWorkloads(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
	}
	return names
}

// testFunctions returns the name of every Test and Benchmark function
// in the module's test files.
func testFunctions(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w+)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
