// Command policycheck evaluates authorization requests against policy
// files in the paper's language, offline. It is the policy
// administrator's lint-and-what-if tool:
//
//	policycheck -policy vo.policy -policy local.policy \
//	    -subject "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu" \
//	    -action start \
//	    -rsl "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)"
//
// With -lint only, it parses the policies and prints their canonical
// form. With -analyze it runs the static semantics analyzer
// (internal/policy/analyze) over the policy set instead of evaluating a
// request: findings print one per line (or as JSON with -json), and the
// exit status is 1 when any finding reaches the -fail-on severity.
//
// For evaluation the exit status is 0 for permit, 1 for deny, 2 for
// usage or policy errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/policy/analyze"
	"gridauth/internal/rsl"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "policycheck:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("policycheck", flag.ContinueOnError)
	var policies stringList
	fs.Var(&policies, "policy", "policy file (repeatable; each file is one administrative source)")
	subject := fs.String("subject", "", "requesting Grid identity (DN)")
	action := fs.String("action", policy.ActionStart, "action: start, cancel, information or signal")
	owner := fs.String("owner", "", "job initiator DN, for management actions")
	rslText := fs.String("rsl", "", "RSL job description")
	lint := fs.Bool("lint", false, "only parse the policies and print their canonical form")
	stats := fs.Bool("stats", false, "compile each policy and print compile time, interned-symbol and bucket counts")
	mode := fs.String("combine", "require-all", "combination: require-all, deny-overrides, permit-overrides, first-applicable")
	doAnalyze := fs.Bool("analyze", false, "run the static semantics analyzer over the policy set instead of evaluating a request")
	jsonOut := fs.Bool("json", false, "with -analyze, print the report as JSON")
	failOn := fs.String("fail-on", "error", "with -analyze, exit 1 when a finding at or above this severity exists (info, warning, error; 'none' disables)")
	actions := fs.String("actions", strings.Join(registryActions, ","), "with -analyze, comma-separated action registry for coverage reporting (empty disables)")
	var locals stringList
	fs.Var(&locals, "local", "with -analyze, treat this -policy file as a local (resource-owner) source (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if len(policies) == 0 {
		return 2, fmt.Errorf("at least one -policy file is required")
	}

	var pdps []core.PDP
	var compiled []*policy.Compiled
	for _, path := range policies {
		f, err := os.Open(path)
		if err != nil {
			return 2, err
		}
		pol, perr := policy.Parse(f, path)
		f.Close()
		if perr != nil {
			return 2, perr
		}
		if *doAnalyze {
			compiled = append(compiled, policy.Compile(pol))
			continue
		}
		if *lint {
			fmt.Printf("# %s: %d statements\n%s", path, len(pol.Statements), pol.Unparse())
			continue
		}
		if *stats {
			s := policy.Compile(pol).Stats()
			fmt.Printf("# %s: compiled %d statements (%d sets: %d grant, %d requirement, %d dead) in %v\n",
				path, s.Statements, s.Sets, s.GrantSets, s.RequirementSets, s.DeadSets, s.CompileTime)
			fmt.Printf("#   subjects: %d (%d group prefixes)  actions: %d  action buckets: %d  wildcard sets: %d  interned symbols: %d\n",
				s.Subjects, s.GroupPrefixes, s.Actions, s.ActionBuckets, s.WildcardSets, s.Symbols)
		}
		pdps = append(pdps, &core.PolicyPDP{Policy: pol})
	}
	if *doAnalyze {
		return runAnalyze(compiled, locals, *actions, *failOn, *jsonOut)
	}
	if *lint {
		return 0, nil
	}
	if *stats && *subject == "" {
		// Stats-only run: nothing to evaluate.
		return 0, nil
	}

	if *subject == "" {
		return 2, fmt.Errorf("-subject is required")
	}
	if !gsi.DN(*subject).Valid() {
		return 2, fmt.Errorf("invalid subject DN %q", *subject)
	}
	var spec *rsl.Spec
	if *rslText != "" {
		s, err := rsl.ParseSpec(*rslText)
		if err != nil {
			return 2, err
		}
		spec = s
	}

	var combine core.CombineMode
	switch *mode {
	case "require-all":
		combine = core.RequireAllPermit
	case "deny-overrides":
		combine = core.DenyOverrides
	case "permit-overrides":
		combine = core.PermitOverrides
	case "first-applicable":
		combine = core.FirstApplicable
	default:
		return 2, fmt.Errorf("unknown -combine %q", *mode)
	}

	req := &core.Request{
		Subject:  gsi.DN(*subject),
		Action:   *action,
		JobOwner: gsi.DN(*owner),
		Spec:     spec,
	}
	d := core.NewCombined(combine, pdps...).Authorize(context.Background(), req)
	fmt.Printf("%s\nsource: %s\nreason: %s\n", strings.ToUpper(d.Effect.String()), d.Source, d.Reason)
	if d.Effect == core.Permit {
		return 0, nil
	}
	return 1, nil
}

// registryActions is the default coverage registry for -analyze: the
// four request actions the protocol defines.
var registryActions = []string{
	policy.ActionStart, policy.ActionCancel, policy.ActionInformation, policy.ActionSignal,
}

// runAnalyze runs the static analyzer over the compiled policy set and
// reports findings. Exit status 1 means a finding reached the -fail-on
// severity; 2 means the analyzer could not run as asked.
func runAnalyze(compiled []*policy.Compiled, locals stringList, actions, failOn string, jsonOut bool) (int, error) {
	opts := analyze.Options{LocalSources: locals}
	if actions != "" {
		for _, a := range strings.Split(actions, ",") {
			if a = strings.TrimSpace(a); a != "" {
				opts.Actions = append(opts.Actions, a)
			}
		}
	}
	var gate analyze.Severity
	if failOn != "none" {
		s, err := analyze.ParseSeverity(failOn)
		if err != nil {
			return 2, err
		}
		gate = s
	}

	rep := analyze.With(opts, compiled...)
	if jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 2, err
		}
		fmt.Println(string(out))
	} else {
		for _, f := range rep.Findings {
			fmt.Println(f)
		}
		if rep.Skipped {
			fmt.Println("# note: shadow and conflict passes skipped (policy set too large)")
		}
		fmt.Printf("# %d finding(s) in %d source(s)\n", len(rep.Findings), len(rep.Sources))
	}
	if gate != 0 && rep.Count(gate) > 0 {
		return 1, nil
	}
	return 0, nil
}
