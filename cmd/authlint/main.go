// Command authlint is the repository's authorization-safety
// multichecker: it runs the internal/analysis/authlint analyzer suite
// over Go package patterns and, by default, the doclint documentation
// cross-checker over the repository's markdown. Findings print as
//
//	file:line:col: analyzer: message
//
// and a non-zero exit fails CI. See docs/ANALYSIS.md for the analyzer
// catalogue and the //authlint:ignore suppression convention.
//
// Usage:
//
//	go run ./cmd/authlint ./...        # whole module (CI invocation)
//	go run ./cmd/authlint -list        # print the analyzer catalogue
//	go run ./cmd/authlint -docs=false ./internal/gram
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"

	"gridauth/internal/analysis"
	"gridauth/internal/analysis/authlint"
	"gridauth/internal/audit"
	"gridauth/internal/doclint"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/policy/analyze"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("authlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and exit")
	docs := fs.Bool("docs", true, "also cross-check documentation references (doclint)")
	pols := fs.Bool("policies", true, "also lint the repository's .policy files (parse everywhere, static analysis outside testdata)")
	metricsOnly := fs.Bool("metrics-only", false, "only check docs/OBSERVABILITY.md against the metric catalog and exit")
	auditOnly := fs.Bool("audit-only", false, "only check docs/AUDIT.md against the audit metric rows and gatekeeper audit flags and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range authlint.All() {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-15s %s\n", "doclint", "documentation references (paths, links, symbols) must resolve against the tree")
		fmt.Fprintf(stdout, "%-15s %s\n", "metricsdoc", "docs/OBSERVABILITY.md's metric table must match obs.Catalog() exactly")
		fmt.Fprintf(stdout, "%-15s %s\n", "auditdoc", "docs/AUDIT.md's metric rows and flag table must match obs.Catalog() and audit.FlagCatalog()")
		fmt.Fprintf(stdout, "%-15s %s\n", "policylint", ".policy files must parse, and outside testdata the static semantics analyzer must find no error-severity defect")
		return 0
	}
	if *metricsOnly || *auditOnly {
		findings := 0
		if *metricsOnly {
			n, err := runMetricsDoc(stdout)
			if err != nil {
				fmt.Fprintln(stderr, "authlint: metricsdoc:", err)
				return 2
			}
			findings += n
		}
		if *auditOnly {
			n, err := runAuditDoc(stdout)
			if err != nil {
				fmt.Fprintln(stderr, "authlint: auditdoc:", err)
				return 2
			}
			findings += n
		}
		if findings > 0 {
			fmt.Fprintf(stderr, "authlint: %d finding(s)\n", findings)
			return 1
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "authlint:", err)
		return 2
	}
	findings := 0
	for _, a := range authlint.All() {
		results, err := analysis.Run(a, pkgs)
		if err != nil {
			fmt.Fprintln(stderr, "authlint:", err)
			return 2
		}
		for i, diags := range results {
			for _, d := range diags {
				fmt.Fprintf(stdout, "%s: %s: %s\n", pkgs[i].Fset.Position(d.Pos), a.Name, d.Message)
				findings++
			}
		}
	}
	if *docs {
		n, err := runDoclint(stdout)
		if err != nil {
			fmt.Fprintln(stderr, "authlint: doclint:", err)
			return 2
		}
		findings += n
		n, err = runMetricsDoc(stdout)
		if err != nil {
			fmt.Fprintln(stderr, "authlint: metricsdoc:", err)
			return 2
		}
		findings += n
		n, err = runAuditDoc(stdout)
		if err != nil {
			fmt.Fprintln(stderr, "authlint: auditdoc:", err)
			return 2
		}
		findings += n
	}
	if *pols {
		n, err := runPolicyLint(stdout)
		if err != nil {
			fmt.Fprintln(stderr, "authlint: policylint:", err)
			return 2
		}
		findings += n
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "authlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// runDoclint applies the documentation cross-checker from the module
// root, so authlint covers code and prose in one invocation.
func runDoclint(stdout io.Writer) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	files, err := doclint.DefaultDocs(root)
	if err != nil {
		return 0, err
	}
	problems, err := doclint.Check(root, files)
	if err != nil {
		return 0, err
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "%s:%d: doclint: %q: %s\n", p.File, p.Line, p.Ref, p.Msg)
	}
	return len(problems), nil
}

// runMetricsDoc cross-checks the documented metric catalog against the
// authoritative one: every metric obs.Catalog() exposes must appear as
// a backticked name between the metrics:begin/metrics:end markers of
// docs/OBSERVABILITY.md, and nothing may be documented that the code
// does not export. This keeps `GET /metrics` and its documentation from
// drifting apart — the check fails CI from either direction.
func runMetricsDoc(stdout io.Writer) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	docPath := filepath.Join(root, "docs", "OBSERVABILITY.md")
	data, err := os.ReadFile(docPath)
	if err != nil {
		return 0, err
	}
	text := string(data)
	const beginMarker, endMarker = "<!-- metrics:begin -->", "<!-- metrics:end -->"
	begin := strings.Index(text, beginMarker)
	end := strings.Index(text, endMarker)
	rel := filepath.ToSlash(filepath.Join("docs", "OBSERVABILITY.md"))
	if begin < 0 || end < 0 || end < begin {
		fmt.Fprintf(stdout, "%s:1: metricsdoc: metric table markers %q/%q missing or out of order\n", rel, beginMarker, endMarker)
		return 1, nil
	}
	table := text[begin+len(beginMarker) : end]
	tableLine := 1 + strings.Count(text[:begin], "\n")

	documented := make(map[string]bool)
	for _, m := range regexp.MustCompile("`([a-z][a-z0-9_]*)`").FindAllStringSubmatch(table, -1) {
		documented[m[1]] = true
	}
	findings := 0
	exported := make(map[string]bool)
	for _, d := range obs.Catalog() {
		exported[d.Name] = true
		if !documented[d.Name] {
			fmt.Fprintf(stdout, "%s:%d: metricsdoc: exported metric %q (%s) is not in the documented catalog\n", rel, tableLine, d.Name, d.Kind)
			findings++
		}
	}
	for name := range documented {
		if !exported[name] {
			fmt.Fprintf(stdout, "%s:%d: metricsdoc: documented metric %q is not exported by obs.Catalog()\n", rel, tableLine, name)
			findings++
		}
	}
	return findings, nil
}

// markedNames extracts the backticked names matching pat between the
// begin/end HTML-comment markers in text. It returns the names, the
// 1-based line of the begin marker (for diagnostics), and ok=false when
// the markers are missing or out of order.
func markedNames(text, begin, end string, pat *regexp.Regexp) (map[string]bool, int, bool) {
	b := strings.Index(text, begin)
	e := strings.Index(text, end)
	if b < 0 || e < 0 || e < b {
		return nil, 0, false
	}
	names := make(map[string]bool)
	for _, m := range pat.FindAllStringSubmatch(text[b+len(begin):e], -1) {
		names[m[1]] = true
	}
	return names, 1 + strings.Count(text[:b], "\n"), true
}

// runAuditDoc cross-checks docs/AUDIT.md against the audit subsystem's
// two operator surfaces: the audit_-prefixed rows of obs.Catalog() must
// match the backticked metric names between the auditmetrics
// begin/end markers, and audit.FlagCatalog() (the gatekeeper's
// -audit-* flags) must match the backticked flag names between the
// auditflags markers. Like metricsdoc, the check fails CI from either
// direction, so adding an audit metric or flag without documenting it
// — or documenting one that no longer exists — is caught.
func runAuditDoc(stdout io.Writer) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	docPath := filepath.Join(root, "docs", "AUDIT.md")
	data, err := os.ReadFile(docPath)
	if err != nil {
		return 0, err
	}
	text := string(data)
	rel := filepath.ToSlash(filepath.Join("docs", "AUDIT.md"))
	findings := 0

	const mBegin, mEnd = "<!-- auditmetrics:begin -->", "<!-- auditmetrics:end -->"
	documented, line, ok := markedNames(text, mBegin, mEnd,
		regexp.MustCompile("`(audit_[a-z0-9_]*)`"))
	if !ok {
		fmt.Fprintf(stdout, "%s:1: auditdoc: metric table markers %q/%q missing or out of order\n", rel, mBegin, mEnd)
		findings++
	} else {
		exported := make(map[string]bool)
		for _, d := range obs.Catalog() {
			if !strings.HasPrefix(d.Name, "audit_") {
				continue
			}
			exported[d.Name] = true
			if !documented[d.Name] {
				fmt.Fprintf(stdout, "%s:%d: auditdoc: exported audit metric %q (%s) is not in the documented table\n", rel, line, d.Name, d.Kind)
				findings++
			}
		}
		for name := range documented {
			if !exported[name] {
				fmt.Fprintf(stdout, "%s:%d: auditdoc: documented audit metric %q is not exported by obs.Catalog()\n", rel, line, name)
				findings++
			}
		}
	}

	const fBegin, fEnd = "<!-- auditflags:begin -->", "<!-- auditflags:end -->"
	docFlags, line, ok := markedNames(text, fBegin, fEnd,
		regexp.MustCompile("`-(audit-[a-z-]*)`"))
	if !ok {
		fmt.Fprintf(stdout, "%s:1: auditdoc: flag table markers %q/%q missing or out of order\n", rel, fBegin, fEnd)
		findings++
		return findings, nil
	}
	registered := make(map[string]bool)
	for _, f := range audit.FlagCatalog() {
		registered[f.Name] = true
		if !docFlags[f.Name] {
			fmt.Fprintf(stdout, "%s:%d: auditdoc: gatekeeper flag %q is not in the documented flag table\n", rel, line, "-"+f.Name)
			findings++
		}
	}
	for name := range docFlags {
		if !registered[name] {
			fmt.Fprintf(stdout, "%s:%d: auditdoc: documented flag %q is not registered by audit.RegisterFlags\n", rel, line, "-"+name)
			findings++
		}
	}
	return findings, nil
}

// runPolicyLint walks the module tree for .policy files. Every file
// must parse; files outside testdata directories (fixtures
// deliberately contain defects) are additionally run through the
// static semantics analyzer, and any error-severity finding —
// unreachable requirements, community/local conflicts, escalation
// holes — is a lint finding. See docs/POLICY-ANALYSIS.md.
func runPolicyLint(stdout io.Writer) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	findings := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".policy") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pol, perr := policy.ParseString(string(data), rel)
		if perr != nil {
			fmt.Fprintf(stdout, "%s:1: policylint: %v\n", rel, perr)
			findings++
			return nil
		}
		if strings.Contains(rel, "testdata/") {
			return nil
		}
		for _, f := range analyze.Analyze(policy.Compile(pol)).Findings {
			if f.Severity < analyze.SeverityError {
				continue
			}
			fmt.Fprintf(stdout, "%s:%d: policylint: %s: %s\n", f.Source, f.Line, f.Class, f.Message)
			findings++
		}
		return nil
	})
	return findings, err
}

// moduleRoot resolves the enclosing module's directory.
func moduleRoot() (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %v\n%s", err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}
