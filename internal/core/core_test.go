package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

const (
	bo   = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu")
	kate = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey")
)

func permitAll(name string) PDP {
	return PDPFunc{ID: name, Fn: func(context.Context, *Request) Decision { return PermitDecision(name, "ok") }}
}

func denyAll(name string) PDP {
	return PDPFunc{ID: name, Fn: func(context.Context, *Request) Decision { return DenyDecision(name, "no") }}
}

func errorAll(name string) PDP {
	return PDPFunc{ID: name, Fn: func(context.Context, *Request) Decision { return ErrorDecision(name, "boom") }}
}

func abstainAll(name string) PDP {
	return PDPFunc{ID: name, Fn: func(context.Context, *Request) Decision { return AbstainDecision(name, "nothing to say") }}
}

func TestCombineRequireAllPermit(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	tests := []struct {
		name string
		pdps []PDP
		want Effect
	}{
		{"both permit", []PDP{permitAll("vo"), permitAll("local")}, Permit},
		{"vo denies", []PDP{denyAll("vo"), permitAll("local")}, Deny},
		{"local denies", []PDP{permitAll("vo"), denyAll("local")}, Deny},
		{"error dominates", []PDP{permitAll("vo"), errorAll("local")}, Error},
		{"empty denies", nil, Deny},
		{"abstention does not veto", []PDP{permitAll("vo"), abstainAll("local")}, Permit},
		{"abstentions alone deny (default deny)", []PDP{abstainAll("vo"), abstainAll("local")}, Deny},
		{"abstention plus deny denies", []PDP{abstainAll("vo"), denyAll("local")}, Deny},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := NewCombined(RequireAllPermit, tt.pdps...).Authorize(context.Background(), req)
			if d.Effect != tt.want {
				t.Errorf("Effect = %v, want %v (%s)", d.Effect, tt.want, d.Reason)
			}
		})
	}
}

func TestCombineOtherModes(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	tests := []struct {
		mode CombineMode
		pdps []PDP
		want Effect
	}{
		{DenyOverrides, []PDP{permitAll("a"), denyAll("b")}, Deny},
		{DenyOverrides, []PDP{permitAll("a"), permitAll("b")}, Permit},
		{DenyOverrides, []PDP{errorAll("a"), permitAll("b")}, Error},
		{PermitOverrides, []PDP{denyAll("a"), permitAll("b")}, Permit},
		{PermitOverrides, []PDP{denyAll("a"), denyAll("b")}, Deny},
		{FirstApplicable, []PDP{errorAll("a"), denyAll("b"), permitAll("c")}, Deny},
		{FirstApplicable, []PDP{errorAll("a"), permitAll("b")}, Permit},
		{FirstApplicable, []PDP{errorAll("a")}, Deny},
		{FirstApplicable, []PDP{abstainAll("a"), permitAll("b")}, Permit},
		{DenyOverrides, []PDP{abstainAll("a"), permitAll("b")}, Permit},
		{PermitOverrides, []PDP{abstainAll("a"), denyAll("b")}, Deny},
	}
	for _, tt := range tests {
		d := NewCombined(tt.mode, tt.pdps...).Authorize(context.Background(), req)
		if d.Effect != tt.want {
			t.Errorf("%s: Effect = %v, want %v", tt.mode, d.Effect, tt.want)
		}
	}
}

func TestPolicyPDP(t *testing.T) {
	pol := policy.MustParse(`
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = test1)
`, "VO:NFC")
	pdp := &PolicyPDP{Policy: pol}
	ok := &Request{Subject: bo, Action: policy.ActionStart, Spec: rsl.NewSpec().Set("executable", "test1")}
	if d := pdp.Authorize(context.Background(), ok); d.Effect != Permit {
		t.Errorf("permit expected: %s", d.Reason)
	}
	bad := &Request{Subject: bo, Action: policy.ActionStart, Spec: rsl.NewSpec().Set("executable", "rm")}
	if d := pdp.Authorize(context.Background(), bad); d.Effect != Deny {
		t.Errorf("deny expected")
	}
	if !strings.HasPrefix(pdp.Name(), "policy:") {
		t.Errorf("Name = %q", pdp.Name())
	}
}

func TestPolicyPDPAbstains(t *testing.T) {
	// A restrictions-only policy (the resource owner's typical shape)
	// abstains when its requirements are met and denies when violated.
	local := &PolicyPDP{Policy: policy.MustParse(`
/O=Grid: &(action = start)(queue != fast)
`, "local")}
	okReq := &Request{Subject: bo, Action: policy.ActionStart, Spec: rsl.NewSpec().Set("executable", "x")}
	if d := local.Authorize(context.Background(), okReq); d.Effect != NotApplicable {
		t.Errorf("restrictions-only policy: got %v, want NotApplicable", d.Effect)
	}
	badReq := &Request{Subject: bo, Action: policy.ActionStart,
		Spec: rsl.NewSpec().Set("executable", "x").Set("queue", "fast")}
	if d := local.Authorize(context.Background(), badReq); d.Effect != Deny {
		t.Errorf("violated requirement: got %v, want Deny", d.Effect)
	}
	// Combined with a granting VO policy, the owner's restrictions veto
	// without being required to grant.
	voPDP := &PolicyPDP{Policy: policy.MustParse(`
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = x)
`, "VO")}
	both := NewCombined(RequireAllPermit, voPDP, local)
	if d := both.Authorize(context.Background(), okReq); d.Effect != Permit {
		t.Errorf("VO grant + owner abstain: got %v (%s)", d.Effect, d.Reason)
	}
	if d := both.Authorize(context.Background(), badReq); d.Effect != Deny {
		t.Errorf("VO grant + owner veto: got %v", d.Effect)
	}
}

func TestSelfOnlyPDP(t *testing.T) {
	pdp := SelfOnlyPDP{}
	own := &Request{Subject: bo, Action: policy.ActionCancel, JobOwner: bo}
	if d := pdp.Authorize(context.Background(), own); d.Effect != Permit {
		t.Errorf("initiator cancel denied: %s", d.Reason)
	}
	other := &Request{Subject: kate, Action: policy.ActionCancel, JobOwner: bo}
	if d := pdp.Authorize(context.Background(), other); d.Effect != Deny {
		t.Errorf("non-initiator cancel permitted")
	}
	start := &Request{Subject: bo, Action: policy.ActionStart}
	if d := pdp.Authorize(context.Background(), start); d.Effect != Deny {
		t.Errorf("JM self-only PDP should not authorize startup")
	}
}

func TestRegistryConfigFile(t *testing.T) {
	dir := t.TempDir()
	polPath := filepath.Join(dir, "vo.policy")
	polText := `/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = test1)`
	if err := os.WriteFile(polPath, []byte(polText), 0o600); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	RegisterBuiltinDrivers(r)
	cfg := `
# GRAM authorization callout configuration
` + CalloutJobManager + ` plainfile path=` + polPath + ` source=VO:NFC
`
	if err := r.LoadConfig(strings.NewReader(cfg)); err != nil {
		t.Fatal(err)
	}
	if !r.Configured(CalloutJobManager) {
		t.Fatalf("callout not configured")
	}
	req := &Request{Subject: bo, Action: policy.ActionStart, Spec: rsl.NewSpec().Set("executable", "test1")}
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit {
		t.Errorf("InvokeContext = %v: %s", d.Effect, d.Reason)
	}
}

func TestRegistryInlineAndAPI(t *testing.T) {
	r := NewRegistry()
	RegisterBuiltinDrivers(r)
	err := r.LoadConfig(strings.NewReader(CalloutJobManager + ` plainfile inline="/O=Grid:" source=x`))
	if err == nil {
		t.Errorf("inline with spaces should fail field splitting or parsing")
	}
	// API binding path.
	r.Bind(CalloutJobManager, SelfOnlyPDP{})
	req := &Request{Subject: bo, Action: policy.ActionCancel, JobOwner: bo}
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit {
		t.Errorf("API-bound callout not used: %s", d.Reason)
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	RegisterBuiltinDrivers(r)
	cases := []string{
		`only-one-field`,
		CalloutJobManager + ` nosuchdriver`,
		CalloutJobManager + ` plainfile`,                      // missing params
		CalloutJobManager + ` plainfile path=/does/not/exist`, // bad file
		CalloutJobManager + ` plainfile =v`,                   // malformed param
	}
	for _, c := range cases {
		if err := r.LoadConfig(strings.NewReader(c)); err == nil {
			t.Errorf("LoadConfig(%q): expected error", c)
		} else {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Errorf("LoadConfig(%q): %v is not a *ConfigError", c, err)
			}
		}
	}
}

func TestUnconfiguredCalloutFailsClosed(t *testing.T) {
	r := NewRegistry()
	req := &Request{Subject: bo, Action: policy.ActionStart}
	d := r.InvokeContext(context.Background(), CalloutJobManager, req)
	if d.Effect != Error {
		t.Errorf("unconfigured callout: Effect = %v, want Error", d.Effect)
	}
}

// Property: under RequireAllPermit, adding a DENYING PDP can never turn
// a Deny into a Permit, a deny anywhere forces Deny, and a Permit
// requires at least one permit with zero denies.
func TestQuickRequireAllMonotone(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	build := func(votes []uint8) ([]PDP, int, int) {
		var (
			pdps            []PDP
			permits, denies int
		)
		for i, v := range votes {
			name := "p" + string(rune('0'+i%10))
			switch v % 3 {
			case 0:
				pdps = append(pdps, permitAll(name))
				permits++
			case 1:
				pdps = append(pdps, denyAll(name))
				denies++
			default:
				pdps = append(pdps, abstainAll(name))
			}
		}
		return pdps, permits, denies
	}
	f := func(votes []uint8) bool {
		pdps, permits, denies := build(votes)
		got := NewCombined(RequireAllPermit, pdps...).Authorize(context.Background(), req)
		want := Deny
		if denies == 0 && permits > 0 {
			want = Permit
		}
		if got.Effect != want {
			return false
		}
		// Adding a deny always yields Deny.
		withDeny := NewCombined(RequireAllPermit, append(pdps, denyAll("extra"))...).Authorize(context.Background(), req)
		return withDeny.Effect == Deny
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRequireAllPermitReason pins the permit reason: every granting
// source in configuration order as "src: reason", joined by "; ",
// abstentions left out, however many sources grant.
func TestRequireAllPermitReason(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	for _, tc := range []struct {
		pdps []PDP
		want string
	}{
		{[]PDP{permitAll("vo")}, "vo: ok"},
		{[]PDP{permitAll("vo"), abstainAll("local"), permitAll("site")}, "vo: ok; site: ok"},
		{[]PDP{permitAll("a"), permitAll("b"), permitAll("c"), permitAll("d"), permitAll("e"), permitAll("f")},
			"a: ok; b: ok; c: ok; d: ok; e: ok; f: ok"},
	} {
		d := NewCombined(RequireAllPermit, tc.pdps...).Authorize(context.Background(), req)
		if d.Effect != Permit || d.Reason != tc.want {
			t.Errorf("%v %q, want permit %q", d.Effect, d.Reason, tc.want)
		}
	}
	// A refusal stops the chain: a side-effecting last child runs only
	// once every earlier source has accepted.
	var ran int
	last := PDPFunc{ID: "last", Fn: func(context.Context, *Request) Decision {
		ran++
		return PermitDecision("last", "ok")
	}}
	NewCombined(RequireAllPermit, permitAll("vo"), denyAll("local"), last).Authorize(context.Background(), req)
	NewCombined(RequireAllPermit, permitAll("vo"), errorAll("local"), last).Authorize(context.Background(), req)
	if ran != 0 {
		t.Errorf("last child ran %d times after an earlier refusal", ran)
	}
}

// TestRequireAllPermitAllocatesOnce is the allocation gate of a
// two-store decision: the permit reason is rendered once, and nothing
// else of the combination allocates.
func TestRequireAllPermitAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	grant := "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = test1)\n"
	chain := NewCombined(RequireAllPermit,
		&StorePDP{Store: policy.NewStore(policy.MustParse(grant, "VO:NFC"))},
		&StorePDP{Store: policy.NewStore(policy.MustParse(grant, "local"))})
	chain.freezeName()
	req := &Request{Subject: bo, Action: policy.ActionStart, Spec: rsl.NewSpec().Set("executable", "test1")}
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		if d := chain.Authorize(ctx, req); d.Effect != Permit {
			t.Fatalf("%v: %s", d.Effect, d.Reason)
		}
	}); n != 1 {
		t.Errorf("a two-store require-all-permit decision allocates %v times, want 1", n)
	}
}

// TestStorePDPNameFollowsReplace: the name is kept between decisions,
// yet a Replace that relabels the store renames the PDP, in Name and in
// the decisions it returns.
func TestStorePDPNameFollowsReplace(t *testing.T) {
	grant := "/O=Grid: &(action = start)\n"
	store := policy.NewStore(policy.MustParse(grant, "VO:NFC"))
	pdp := &StorePDP{Store: store}
	req := &Request{Subject: bo, Action: policy.ActionStart, Spec: rsl.NewSpec()}
	for _, src := range []string{"VO:NFC", "VO:ADS", "VO:ADS", "local"} {
		if store.Current().Source != src {
			store.Replace(policy.MustParse(grant, src))
		}
		want := "policy-store:" + src
		if got := pdp.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
		if d := pdp.Authorize(context.Background(), req); d.Source != want {
			t.Errorf("decision source = %q, want %q", d.Source, want)
		}
	}
}
