package policy

import (
	"testing"

	"gridauth/internal/gsi"
	"gridauth/internal/rsl"
)

// FuzzCompiledEquivalence is the differential fuzzer for the compiled
// policy engine: for any policy text that parses and any request shape,
// Compile(p).Evaluate must return a Decision identical — every field,
// including GrantedBy and the Reason text — to the interpreted
// Policy.Evaluate. The corpus is seeded with the Figure-3 conformance
// policies and the language's edge constructs (NULL, self, ordering
// limits, nested subject prefixes, contradictory action selectors).
func FuzzCompiledEquivalence(f *testing.F) {
	seeds := []struct {
		policy, subject, action, owner, spec string
		noSpec                               bool
	}{
		// Figure 3 with its narrated permit/deny shapes.
		{fig3, string(bo), ActionStart, "",
			`&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)`, false},
		{fig3, string(bo), ActionStart, "",
			`&(executable=test1)(directory=/sandbox/test)(count=3)`, false},
		{fig3, string(kate), ActionCancel, string(bo),
			`&(executable=test2)(jobtag=NFC)`, false},
		{fig3, string(sam), ActionStart, "", `&(executable=test1)`, false},
		{fig3, string(ext), ActionSignal, "", ``, true},
		// The paper's local-policy shape: self management + site cap.
		{`/O=Grid: &(action = start)(count <= 64)(executable != /bin/rm)
/O=Grid: &(action = cancel information signal)(jobowner = self)
/O=Grid/CN=U: &(action = start)(executable = sim)(queue = batch fast)`,
			"/O=Grid/CN=U", ActionCancel, "/O=Grid/CN=U", ``, true},
		// NULL in both polarities, multi-value requests.
		{`/O=Grid: &(action = start)(jobtag != NULL)(env = NULL)
/O=Grid/CN=U: &(action = start)(executable = a b)`,
			"/O=Grid/CN=U", ActionStart, "", `&(executable=a)(jobtag="" x)`, false},
		// Nested prefixes incl. a CN that properly prefixes another.
		{`/O=Grid: &(action = start)(count < 9)
/O=Grid/CN=Bo: &(action = start)(executable = probe)
/O=Grid/CN=Bo Liu: &(action = start)(executable = test1)`,
			"/O=Grid/CN=Bo Liu/CN=proxy", ActionStart, "", `&(executable=test1)(count=3)`, false},
		// Contradictory and odd action selectors.
		{`/O=Grid/CN=U: &(action = start)(action = cancel)(executable = a) &(action != cancel)(executable = a) &(action = NULL)(executable = a)`,
			"/O=Grid/CN=U", ActionStart, "", `&(executable=a)`, false},
		// Ordering against non-numeric values and self.
		{`/O=Grid/CN=U: &(action = start)(queue <= m)(executable = a)(jobowner >= self)`,
			"/O=Grid/CN=U", ActionStart, "/O=Grid/CN=T", `&(executable=a)(queue=batch)`, false},
		// Denial rendering: two violated requirements, one from a group
		// prefix and one from the subject's own statement.
		{`/O=Grid: &(action = start)(jobtag != NULL)
/O=Grid/CN=U: &(action = start)(count < 4) &(action = start)(executable = a)`,
			"/O=Grid/CN=U", ActionStart, "", `&(executable=a)(count=9)`, false},
		// Three failing grants, each naming its own first failing clause.
		{`/O=Grid: &(action = start)(executable = a)(queue = fast)
/O=Grid/CN=U: &(action = start)(count = 1)(executable = b) &(action = start cancel)(directory = "/tmp x")`,
			"/O=Grid/CN=U/CN=proxy", ActionStart, "", `&(executable=b)(queue=slow)(count=2)`, false},
		// A wildcard-action requirement between bucketed ones.
		{`/O=Grid: &(action = start)(queue != slow)
/O=Grid/CN=U: &(count <= 2) &(action = start)(executable != b) &(action = start)(executable = a b)`,
			"/O=Grid/CN=U", ActionStart, "", `&(executable=b)(queue=slow)(count=3)`, false},
		// A self limit that fails.
		{`/O=Grid/CN=U: &(action = cancel)(jobowner <= self)(jobtag = x)`,
			"/O=Grid/CN=U", ActionCancel, "/O=Grid/CN=V", `&(jobtag=x)`, false},
	}
	for _, s := range seeds {
		f.Add(s.policy, s.subject, s.action, s.owner, s.spec, s.noSpec)
	}
	f.Fuzz(func(t *testing.T, policyText, subject, action, owner, specText string, noSpec bool) {
		pol, err := ParseString(policyText, "fuzz")
		if err != nil {
			return
		}
		var sp *rsl.Spec
		if !noSpec {
			if parsed, err := rsl.ParseSpec(specText); err == nil {
				sp = parsed
			}
		}
		req := &Request{
			Subject:  gsi.DN(subject),
			Action:   action,
			JobOwner: gsi.DN(owner),
			Spec:     sp,
		}
		want := pol.Evaluate(req)
		got := Compile(pol).Evaluate(req)
		if got != want {
			t.Fatalf("compiled decision diverges from interpreted:\npolicy:\n%s\nrequest: subject=%q action=%q owner=%q spec=%v\ninterpreted: %+v\ncompiled:    %+v",
				policyText, subject, action, owner, sp, want, got)
		}
	})
}
