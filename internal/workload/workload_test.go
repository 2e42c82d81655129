package workload

import (
	"math/rand"
	"testing"

	"gridauth/internal/policy"
)

func TestNFCUsers(t *testing.T) {
	users := NFCUsers(2, 3, 1)
	if len(users) != 6 {
		t.Fatalf("users = %d", len(users))
	}
	roles := map[string]int{}
	for _, u := range users {
		roles[u.Role]++
		if !u.DN.HasPrefix(OrgPrefix) {
			t.Errorf("DN %s outside org prefix", u.DN)
		}
	}
	if roles["developer"] != 2 || roles["analyst"] != 3 || roles["admin"] != 1 {
		t.Errorf("roles = %v", roles)
	}
	// Deterministic.
	again := NFCUsers(2, 3, 1)
	for i := range users {
		if users[i] != again[i] {
			t.Errorf("NFCUsers not deterministic at %d", i)
		}
	}
}

func TestNFCPolicyDecisions(t *testing.T) {
	users := NFCUsers(1, 1, 1)
	pol, err := NFCPolicy(users)
	if err != nil {
		t.Fatal(err)
	}
	dev, ana, adm := users[0], users[1], users[2]
	rng := rand.New(rand.NewSource(1))

	devJob := JobFor(dev, rng, true)
	if !pol.Evaluate(&policy.Request{Subject: dev.DN, Action: policy.ActionStart, Spec: devJob}).Allowed {
		t.Errorf("conforming developer job denied")
	}
	anaJob := JobFor(ana, rng, true)
	if !pol.Evaluate(&policy.Request{Subject: ana.DN, Action: policy.ActionStart, Spec: anaJob}).Allowed {
		t.Errorf("conforming analyst job denied")
	}
	// Role crossing is denied: a developer cannot start analyst services.
	if pol.Evaluate(&policy.Request{Subject: dev.DN, Action: policy.ActionStart, Spec: anaJob}).Allowed {
		t.Errorf("developer ran analyst job")
	}
	// Admin manages others' NFC jobs.
	d := pol.Evaluate(&policy.Request{Subject: adm.DN, Action: policy.ActionCancel, JobOwner: ana.DN, Spec: anaJob})
	if !d.Allowed {
		t.Errorf("admin cancel denied: %s", d.Reason)
	}
	// Analyst cannot manage the developer's job.
	if pol.Evaluate(&policy.Request{Subject: ana.DN, Action: policy.ActionCancel, JobOwner: dev.DN, Spec: devJob}).Allowed {
		t.Errorf("analyst managed another's job")
	}
}

func TestJobForNonConformingViolates(t *testing.T) {
	users := NFCUsers(4, 4, 0)
	pol, err := NFCPolicy(users)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NFCLocalPolicy()
	if err != nil {
		t.Fatal(err)
	}
	merged := pol.Merge(local)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		u := users[rng.Intn(len(users))]
		spec := JobFor(u, rng, false)
		d := merged.Evaluate(&policy.Request{Subject: u.DN, Action: policy.ActionStart, Spec: spec})
		if d.Allowed {
			t.Fatalf("non-conforming job allowed for %s: %s", u.DN, spec)
		}
	}
	// And conforming jobs pass both policies.
	for i := 0; i < 200; i++ {
		u := users[rng.Intn(len(users))]
		spec := JobFor(u, rng, true)
		d := merged.Evaluate(&policy.Request{Subject: u.DN, Action: policy.ActionStart, Spec: spec})
		if !d.Allowed {
			t.Fatalf("conforming job denied for %s: %s (%s)", u.DN, spec, d.Reason)
		}
	}
}

func TestRequestStreamDeterministic(t *testing.T) {
	users := NFCUsers(2, 2, 1)
	a := RequestStream(users, 100, 7, 0.9)
	b := RequestStream(users, 100, 7, 0.9)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("lengths = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Subject != b[i].Subject || a[i].Action != b[i].Action || a[i].Spec.Unparse() != b[i].Spec.Unparse() {
			t.Fatalf("stream not deterministic at %d", i)
		}
	}
	starts := 0
	for _, r := range a {
		if r.Action == policy.ActionStart {
			starts++
		}
	}
	if starts < 60 || starts > 95 {
		t.Errorf("start fraction out of band: %d/100", starts)
	}
}

func TestSyntheticPolicyShape(t *testing.T) {
	users := NFCUsers(0, 10, 0)
	pol, err := SyntheticPolicy(users, 50, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 50 {
		t.Fatalf("statements = %d", len(pol.Statements))
	}
	for _, st := range pol.Statements {
		if len(st.Sets) != 3 {
			t.Fatalf("sets = %d", len(st.Sets))
		}
		for _, set := range st.Sets {
			if len(set.Clauses) != 5 {
				t.Fatalf("clauses = %d", len(set.Clauses))
			}
		}
	}
	// A request matching statement 0's first grant evaluates to permit.
	spec := JobFor(users[0], rand.New(rand.NewSource(1)), true)
	spec.Set("executable", "exe0-0")
	spec.Set("attr2", "v2")
	spec.Set("attr3", "v3")
	spec.Set("attr4", "v4")
	d := pol.Evaluate(&policy.Request{Subject: users[0].DN, Action: policy.ActionStart, Spec: spec})
	if !d.Allowed {
		t.Errorf("synthetic grant did not fire: %s", d.Reason)
	}
}

func TestSyntheticRSLParses(t *testing.T) {
	for _, n := range []int{1, 5, 50, 200} {
		text := SyntheticRSL(n)
		spec, err := parseSpec(text)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if spec.Len() != n {
			t.Errorf("n=%d: attrs = %d", n, spec.Len())
		}
	}
}

// Every P12 shape must (a) evaluate identically compiled and
// interpreted, (b) permit on each generated request — the sweep times
// the permit path, a silent deny would benchmark the wrong code — and
// (c) resolve through the intended subject machinery (exact bucket vs
// prefix search).
func TestP12Shapes(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(int) *policy.Policy
	}{
		{"exact", ExactHeavyPolicy},
		{"prefix", PrefixHeavyPolicy},
		{"req", RequirementHeavyPolicy},
	}
	for _, sh := range shapes {
		pol := sh.gen(64)
		if got := len(pol.Statements); got != 64 {
			t.Fatalf("%s: statements = %d, want 64", sh.name, got)
		}
		c := policy.Compile(pol)
		for i, r := range P12Requests(pol, 96) {
			req := &r
			lin, com := pol.Evaluate(req), c.Evaluate(req)
			if lin != com {
				t.Fatalf("%s request %d: interpreted %+v != compiled %+v", sh.name, i, lin, com)
			}
			if !com.Allowed {
				t.Errorf("%s request %d (%s): not permitted: %s", sh.name, i, r.Subject, com.Reason)
			}
		}
	}
	// Round-tripping through the text form proves the struct builders
	// produce what policy.Parse would.
	for _, sh := range shapes {
		pol := sh.gen(8)
		reparsed, err := policy.ParseString(pol.Unparse(), pol.Source)
		if err != nil {
			t.Fatalf("%s: reparse: %v", sh.name, err)
		}
		c := policy.Compile(reparsed)
		for i, r := range P12Requests(pol, 7) {
			req := &r
			if lin, com := pol.Evaluate(req), c.Evaluate(req); lin != com {
				t.Fatalf("%s request %d: struct-built %+v != reparsed %+v", sh.name, i, lin, com)
			}
		}
	}
}
