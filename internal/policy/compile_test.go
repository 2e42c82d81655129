package policy

import (
	"strings"
	"testing"

	"gridauth/internal/gsi"
	"gridauth/internal/rsl"
)

// diffDecisions asserts the compiled evaluator returns exactly the
// interpreted decision, field for field (incl. GrantedBy and Reason).
func diffDecisions(t *testing.T, p *Policy, c *Compiled, req *Request) {
	t.Helper()
	want := p.Evaluate(req)
	got := c.Evaluate(req)
	if got != want {
		t.Errorf("decision mismatch for %s %s:\n  interpreted: %+v\n  compiled:    %+v",
			req.Subject, req.Action, want, got)
	}
}

// TestCompiledFig3FullEquivalence covers every outcome class — permit,
// requirement violation, unsatisfied grants, abstain, default deny — and
// checks full Decision equality, not just Allowed.
func TestCompiledFig3FullEquivalence(t *testing.T) {
	p := fig3Policy(t)
	c := Compile(p)
	reqs := []*Request{
		// Permit: Bo's first grant set.
		{Subject: bo, Action: ActionStart,
			Spec: spec(t, `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)`)},
		// Permit: Bo's second grant set (GrantedBy must name set #1).
		{Subject: bo, Action: ActionStart,
			Spec: spec(t, `&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=3)`)},
		// Requirement violation: missing jobtag.
		{Subject: bo, Action: ActionStart,
			Spec: spec(t, `&(executable=test1)(directory=/sandbox/test)(count=3)`)},
		// No grant satisfied: wrong executable.
		{Subject: bo, Action: ActionStart,
			Spec: spec(t, `&(executable=rm)(directory=/sandbox/test)(jobtag=ADS)(count=3)`)},
		// Over the count limit.
		{Subject: bo, Action: ActionStart,
			Spec: spec(t, `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=9)`)},
		// Kate cancels an NFC job.
		{Subject: kate, Action: ActionCancel, JobOwner: bo,
			Spec: spec(t, `&(executable=test2)(jobtag=NFC)`)},
		// Sam has no grants: abstain vs requirement violation paths.
		{Subject: sam, Action: ActionStart,
			Spec: spec(t, `&(executable=test1)(jobtag=ADS)`)},
		{Subject: sam, Action: ActionStart,
			Spec: spec(t, `&(executable=test1)`)},
		// Outsider: nothing applies.
		{Subject: ext, Action: ActionStart,
			Spec: spec(t, `&(executable=test1)(jobtag=ADS)`)},
		// Action no statement mentions: precomputed default deny.
		{Subject: bo, Action: "reboot",
			Spec: spec(t, `&(executable=test1)(jobtag=ADS)`)},
		// Management action with nil spec.
		{Subject: kate, Action: ActionCancel, JobOwner: bo},
		// Proxy-extended identity: prefix-matches Bo's statements.
		{Subject: bo + "/CN=proxy", Action: ActionStart,
			Spec: spec(t, `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)`)},
	}
	for _, req := range reqs {
		diffDecisions(t, p, c, req)
	}
}

// TestNeqNullAllValues pins the corrected (attr != NULL) semantics — the
// attribute must be present with EVERY value non-empty — on both
// evaluators. Before the fix, only the first value was inspected, so
// ["", "x"] and ["x", ""] were judged inconsistently.
func TestNeqNullAllValues(t *testing.T) {
	p := MustParse(`
/O=Grid: &(action = start)(jobtag != NULL)
/O=Grid/CN=U: &(action = start)(executable = test1)
`, "local")
	c := Compile(p)
	u := gsi.DN("/O=Grid/CN=U")
	tests := []struct {
		name  string
		tags  []string
		allow bool
	}{
		{"absent", nil, false},
		{"single empty", []string{""}, false},
		{"single non-empty", []string{"A"}, true},
		{"empty then non-empty", []string{"", "A"}, false},
		{"non-empty then empty", []string{"A", ""}, false},
		{"all non-empty", []string{"A", "B"}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sp := rsl.NewSpec().Set("executable", "test1")
			if tt.tags != nil {
				sp.Set("jobtag", tt.tags...)
			}
			req := &Request{Subject: u, Action: ActionStart, Spec: sp}
			want := p.Evaluate(req)
			got := c.Evaluate(req)
			if got != want {
				t.Fatalf("evaluators disagree:\n  interpreted: %+v\n  compiled:    %+v", want, got)
			}
			if got.Allowed != tt.allow {
				t.Errorf("Allowed = %v, want %v (reason %q)", got.Allowed, tt.allow, got.Reason)
			}
		})
	}
}

// TestCompiledSelfAndLimits exercises self values, jobowner synthesis
// and ordering limits through the compiled matchers.
func TestCompiledSelfAndLimits(t *testing.T) {
	p := MustParse(`
/O=Grid/CN=U: &(action = cancel)(jobowner = self) &(action = start)(executable = sim)(count >= 2)(count <= 8)
`, "local")
	c := Compile(p)
	u := gsi.DN("/O=Grid/CN=U")
	reqs := []*Request{
		{Subject: u, Action: ActionCancel, JobOwner: u},
		{Subject: u, Action: ActionCancel, JobOwner: "/O=Grid/CN=V"},
		{Subject: u, Action: ActionCancel}, // owner defaults to subject
		{Subject: u, Action: ActionStart, Spec: spec(t, `&(executable=sim)(count=4)`)},
		{Subject: u, Action: ActionStart, Spec: spec(t, `&(executable=sim)(count=1)`)},
		{Subject: u, Action: ActionStart, Spec: spec(t, `&(executable=sim)(count=9)`)},
		{Subject: u, Action: ActionStart, Spec: spec(t, `&(executable=sim)(count=notanumber)`)},
		{Subject: u, Action: ActionStart, Spec: spec(t, `&(executable=sim)`)}, // absent limit attr
	}
	for _, req := range reqs {
		diffDecisions(t, p, c, req)
	}
}

// TestCompiledPermitPathZeroAlloc pins the tentpole's core claim: a
// permit decision on the compiled form allocates nothing, including for
// identities resolved through the prefix index and requests carrying
// numeric limits and group requirements.
func TestCompiledPermitPathZeroAlloc(t *testing.T) {
	p := MustParse(`
/O=Grid: &(action = start)(jobtag != NULL)
/O=Grid/CN=U: &(action = start)(executable = sim)(count <= 8)
`, "local")
	c := Compile(p)
	sp := rsl.NewSpec().Set("executable", "sim").Set("count", "4").Set("jobtag", "T")
	exact := &Request{Subject: "/O=Grid/CN=U", Action: ActionStart, Spec: sp}
	proxy := &Request{Subject: "/O=Grid/CN=U/CN=proxy", Action: ActionStart, Spec: sp}
	for name, req := range map[string]*Request{"exact": exact, "prefix": proxy} {
		if d := c.Evaluate(req); !d.Allowed {
			t.Fatalf("%s: unexpectedly denied: %+v", name, d)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if !c.Evaluate(req).Allowed {
				t.Fatal("denied")
			}
		})
		if allocs != 0 {
			t.Errorf("%s permit path allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

func TestCompileStats(t *testing.T) {
	p := fig3Policy(t)
	c := Compile(p)
	s := c.Stats()
	if s.Statements != 3 || s.Sets != 5 {
		t.Errorf("Statements/Sets = %d/%d, want 3/5", s.Statements, s.Sets)
	}
	if s.GrantSets != 4 || s.RequirementSets != 1 || s.DeadSets != 0 {
		t.Errorf("Grant/Requirement/Dead = %d/%d/%d, want 4/1/0",
			s.GrantSets, s.RequirementSets, s.DeadSets)
	}
	if s.Subjects != 3 || s.GroupPrefixes != 1 {
		t.Errorf("Subjects/GroupPrefixes = %d/%d, want 3/1", s.Subjects, s.GroupPrefixes)
	}
	if s.Actions != 2 { // start, cancel
		t.Errorf("Actions = %d, want 2", s.Actions)
	}
	if s.Symbols == 0 || s.ActionBuckets == 0 {
		t.Errorf("Symbols/ActionBuckets = %d/%d, want > 0", s.Symbols, s.ActionBuckets)
	}
	if s.CompileTime <= 0 {
		t.Errorf("CompileTime = %v, want > 0", s.CompileTime)
	}
	if c.Policy() != p || c.Source() != "VO:NFC" {
		t.Errorf("Policy/Source accessors wrong")
	}
}

// TestCompiledDeadSets: selectors that can never match are dropped but
// preserve interpreted semantics.
func TestCompiledDeadSets(t *testing.T) {
	p := MustParse(`
/O=Grid/CN=U: &(action = NULL)(executable = sim) &(action = start)(executable = sim)
`, "local")
	c := Compile(p)
	if c.Stats().DeadSets != 1 {
		t.Errorf("DeadSets = %d, want 1", c.Stats().DeadSets)
	}
	req := &Request{Subject: "/O=Grid/CN=U", Action: ActionStart,
		Spec: spec(t, `&(executable=sim)`)}
	diffDecisions(t, p, c, req)
}

// TestStoreCompiledSwap pins the Update contract: the compiled form is
// rebuilt before OnChange hooks fire, and always corresponds to the
// policy from the same snapshot.
func TestStoreCompiledSwap(t *testing.T) {
	s := NewStore(MustParse(boDN+`: &(action = start)(executable = a)`, "VO"))
	if c := s.Compiled(); c == nil || c.Policy() != s.Current() {
		t.Fatal("initial compiled form missing or mismatched")
	}
	var hookSaw *Compiled
	var hookPol *Policy
	s.OnChange(func() {
		hookSaw = s.Compiled()
		hookPol = s.Current()
	})
	s.Replace(MustParse(boDN+`: &(action = cancel)(jobtag = x)`, s.Current().Source))
	if hookSaw == nil || hookSaw.Policy() != hookPol {
		t.Fatal("hook observed compiled form from a different snapshot")
	}
	if !strings.Contains(hookPol.Unparse(), "cancel") {
		t.Errorf("hook saw stale policy: %s", hookPol.Unparse())
	}
	// The compiled form decides like the new policy.
	d := s.Compiled().Evaluate(&Request{Subject: gsi.DN(boDN), Action: ActionCancel,
		Spec: spec(t, `&(jobtag=x)`)})
	if !d.Allowed {
		t.Errorf("compiled form did not pick up the update: %+v", d)
	}
}
