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
	if err := r.LoadConfigString(cfg); err != nil {
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
	err := r.LoadConfigString(CalloutJobManager + ` plainfile inline="/O=Grid:" source=x`)
	if err == nil {
		t.Errorf("inline with spaces should fail field splitting or parsing")
	}
	// API binding path.
	r.Bind(CalloutJobManager, SelfOnlyPDP{})
	req := &Request{Subject: bo, Action: policy.ActionCancel, JobOwner: bo}
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit {
		t.Errorf("API-bound callout not used: %s", d.Reason)
	}
	r.Unbind(CalloutJobManager)
	if r.Configured(CalloutJobManager) {
		t.Errorf("Unbind did not clear")
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
		if err := r.LoadConfigString(c); err == nil {
			t.Errorf("LoadConfigString(%q): expected error", c)
		} else {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Errorf("LoadConfigString(%q): %v is not a *ConfigError", c, err)
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

func TestCheckDecisionAndErrors(t *testing.T) {
	if err := CheckDecision(PermitDecision("x", "ok")); err != nil {
		t.Errorf("permit produced error: %v", err)
	}
	err := CheckDecision(DenyDecision("vo", "count too high"))
	if err == nil {
		t.Fatalf("deny produced nil error")
	}
	if !errors.Is(err, ErrDenied) {
		t.Errorf("deny does not match ErrDenied")
	}
	var ae *AuthorizationError
	if !errors.As(err, &ae) || ae.Decision.Source != "vo" {
		t.Errorf("error lost decision detail: %v", err)
	}
	sysErr := CheckDecision(ErrorDecision("vo", "backend down"))
	if errors.Is(sysErr, ErrDenied) {
		t.Errorf("system failure must not match ErrDenied")
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
