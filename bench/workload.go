package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
	"gridauth/internal/workload"
)

// clients is the closed-loop client count: one per core of the 2-core
// reference box. Each client owns the identities i with i%clients ==
// client, so no client ever waits on the other's identity and the
// per-client op streams are independent of scheduling.
const clients = 2

// policyRules is the community policy size: the workload's P12 shape at
// 10 000 statements, plus the org-wide grants below.
const policyRules = 10000

// Traffic constants. jobTag is the grant handle of the local source; the
// job runs for a day of virtual time, which never advances, so a started
// job stays cancellable until the state machine cancels it.
const (
	jobTag   = "BENCH"
	dataDir  = "/data/bench"
	otherDir = "/data/other"
	account  = "bench"
)

var payload = []byte("bench-object")

type opKind uint8

const (
	kindSubmit opKind = iota
	kindStatus
	kindCancel
	kindPut
	numKinds
)

func (k opKind) String() string {
	return [...]string{"submit", "status", "cancel", "put"}[k]
}

// variant says how an op is built: vOK is permitted, every other variant
// is refused by exactly one clause of one source.
type variant uint8

const (
	vOK          variant = iota
	vDenyCount           // count=16: over the community grant's count<=8
	vDenyQueue           // queue=fast: the org-wide requirement
	vDenyExe             // executable=rogue: no grant names it
	vDenyMaxtime         // maxtime=600: community permits, local refuses
	vDenyForeign         // status/cancel of another identity's job
	vDenyDir             // put outside the granted directory
	numVariants
)

func (v variant) String() string {
	return [...]string{"ok", "deny-count", "deny-queue", "deny-exe", "deny-maxtime", "deny-foreign", "deny-dir"}[v]
}

type connMode uint8

const (
	connWarm   connMode = iota // pooled connection opened in warm-up
	connResume                 // connection dropped before the op; GRAM resumes by ticket
	connCold                   // fresh client, full handshake, closed after the op
)

// op is one client request. Target is the identity whose job a status or
// cancel addresses (equal to Ident unless the variant is vDenyForeign).
type op struct {
	Kind    opKind
	Variant variant
	Conn    connMode
	Ident   uint32
	Target  uint32
}

// permitted reports the outcome the op is built to get.
func (o op) permitted() bool { return o.Variant == vOK }

// submitRSL is the job description of a startup op per variant.
func submitRSL(v variant) string {
	exe, count, maxtime, extra := "app", "2", "30", ""
	switch v {
	case vDenyCount:
		count = "16"
	case vDenyQueue:
		extra = "(queue=fast)"
	case vDenyExe:
		exe = "rogue"
	case vDenyMaxtime:
		maxtime = "600"
	}
	return "&(executable=" + exe + ")(jobtag=" + jobTag + ")(count=" + count + ")(maxtime=" + maxtime + ")(simduration=86400)" + extra
}

// putDir is the directory a put of the given variant writes to.
func putDir(v variant) string {
	if v == vDenyDir {
		return otherDir
	}
	return dataDir
}

func putPath(o op) string { return fmt.Sprintf("%s/u%d", putDir(o.Variant), o.Ident) }

// workloadSpec defines one named workload. Ops is frozen: it was sized
// once to about runSeconds on the 2-core reference box at the seed commit,
// so op totals, decision counts, allocations and heap compare exactly
// between two commits.
type workloadSpec struct {
	Name       string
	Why        string
	Shape      string // P12 shape of the community policy
	Ops        int    // timed ops of a run, over both clients
	Identities int    // pooled identities; 0 means one identity per op
	TraceOps   int    // the traced run replays this many ops of client 0
	gen        func(g *generator)
}

var workloads = []*workloadSpec{
	{
		Name:  "manage-reuse",
		Why:   "warm multiplexed connections, so the per-request path (framing, RSL, grid-map, callout chain, audit, job control) does all the work",
		Shape: "req", Ops: 800000, Identities: 256, TraceOps: 20000,
		gen: func(g *generator) {
			g.openAll(connWarm, false)
			for !g.done() {
				g.manage(g.pick(), connWarm)
			}
		},
	},
	{
		Name:  "connect-cold",
		Why:   "every op is a new identity on a new connection, so socket set-up and the full GSI handshake dominate and per-subject caches cannot help",
		Shape: "prefix", Ops: 65536, Identities: 0, TraceOps: 8192,
		gen: func(g *generator) {
			for k := uint32(0); !g.done(); k++ {
				o := op{Kind: kindSubmit, Conn: connCold, Ident: k*clients + uint32(g.client)}
				if g.rng.Intn(4) == 0 {
					o.Kind = kindPut
				}
				o.Target = o.Ident
				g.emit(o)
			}
		},
	},
	{
		Name:  "reconnect-hot",
		Why:   "repeat subjects reconnect before every op: GRAM resumes by session ticket, GridFTP pays a full handshake whose chain was verified moments ago",
		Shape: "prefix", Ops: 120000, Identities: 512, TraceOps: 8192,
		gen: func(g *generator) {
			g.openAll(connResume, false)
			for !g.done() {
				id := g.pick()
				if g.rng.Intn(4) == 0 {
					g.emit(op{Kind: kindPut, Conn: connCold, Ident: id, Target: id})
					continue
				}
				g.manage(id, connResume)
			}
		},
	},
	{
		Name:  "deny-mixed",
		Why:   "half of all ops are refused, one sixth each by six clauses, so the deny path (interpreter, reason string, error reply, denial audit record) is priced beside permits",
		Shape: "prefix", Ops: 760000, Identities: 256, TraceOps: 20000,
		gen: func(g *generator) {
			g.openAll(connWarm, true)
			for !g.done() {
				id := g.pick()
				if g.rng.Intn(2) == 0 {
					g.deny(id, variant(1+g.rng.Intn(int(numVariants)-1)))
					continue
				}
				// One put in eight overall: the deny-dir sixth of the
				// refused half is 1/12 of all ops, this is the other 1/24.
				if g.rng.Intn(12) == 0 {
					g.emit(op{Kind: kindPut, Conn: connWarm, Ident: id, Target: id})
					continue
				}
				g.manage(id, connWarm)
			}
		},
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// warmRandomOps is how many ops per client the warm-up runs after it has
// opened every pooled connection (≥2 000 in total).
const warmRandomOps = 1000

// generator builds one client's op stream and simulates the per-identity
// job state the ops will produce, so every op's expected outcome and
// every foreign-job target are fixed before anything runs.
type generator struct {
	client int
	rng    *rand.Rand
	own    []uint32 // pooled identities of this client
	hasJob map[uint32]bool
	live   []uint32 // identities with a job, for foreign targets
	ops    []op
	warm   int // ops[:warm] are the untimed warm-up
	want   int // len(ops) at which the stream is complete
}

func (g *generator) done() bool { return len(g.ops) >= g.want }

func (g *generator) emit(o op) { g.ops = append(g.ops, o) }

func (g *generator) pick() uint32 { return g.own[g.rng.Intn(len(g.own))] }

// openAll emits the first half of warm-up: one submit (and, when the
// workload puts on warm connections, one put) per pooled identity, which
// opens its connections and obtains its session ticket.
func (g *generator) openAll(conn connMode, withPut bool) {
	for _, id := range g.own {
		g.manage(id, conn)
		if withPut {
			g.emit(op{Kind: kindPut, Conn: connWarm, Ident: id, Target: id})
		}
	}
	g.warm = len(g.ops) + warmRandomOps
	g.want += g.warm
}

// manage emits the next op of id's state machine: no job → submit; else
// status six times in seven, cancel once.
func (g *generator) manage(id uint32, conn connMode) {
	o := op{Kind: kindStatus, Conn: conn, Ident: id, Target: id}
	switch {
	case !g.hasJob[id]:
		o.Kind = kindSubmit
		g.hasJob[id] = true
		g.live = append(g.live, id)
	case g.rng.Intn(7) == 0:
		o.Kind = kindCancel
		g.hasJob[id] = false
		for i, l := range g.live {
			if l == id {
				g.live[i] = g.live[len(g.live)-1]
				g.live = g.live[:len(g.live)-1]
				break
			}
		}
	}
	g.emit(o)
}

// deny emits an op of the given refused variant on warm connections.
func (g *generator) deny(id uint32, v variant) {
	o := op{Kind: kindSubmit, Variant: v, Conn: connWarm, Ident: id, Target: id}
	switch v {
	case vDenyDir:
		o.Kind = kindPut
	case vDenyForeign:
		victim := id
		if len(g.live) > 0 {
			victim = g.live[g.rng.Intn(len(g.live))]
		}
		if victim == id {
			// Managing one's own job is permitted; refuse something else.
			o.Variant = vDenyExe
			break
		}
		o.Kind, o.Target = kindStatus, victim
		if g.rng.Intn(7) == 0 {
			o.Kind = kindCancel
		}
	}
	g.emit(o)
}

// stream is one client's generated ops, split at the warm-up boundary.
type stream struct {
	Warm  []op
	Timed []op
}

// genStreams builds the per-client streams of a workload. Each client's
// sub-stream is derived from (seed, workload, client) alone, so streams
// are byte-identical per seed regardless of how the clients interleave.
func genStreams(spec *workloadSpec, seed int64, opsPerClient int) [clients]stream {
	var out [clients]stream
	for c := 0; c < clients; c++ {
		h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%d", spec.Name, seed, c)))
		g := &generator{
			client: c,
			rng:    rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(h[:8])))),
			hasJob: make(map[uint32]bool),
			want:   opsPerClient,
		}
		for i := c; i < spec.Identities; i += clients {
			g.own = append(g.own, uint32(i))
		}
		if spec.Identities == 0 {
			// One identity per op: the warm-up consumes its own.
			g.warm = warmRandomOps
			g.want += g.warm
		}
		spec.gen(g)
		out[c] = stream{Warm: g.ops[:g.warm], Timed: g.ops[g.warm:]}
	}
	return out
}

// identityCount is how many identities the streams address.
func identityCount(spec *workloadSpec, streams [clients]stream) int {
	if spec.Identities > 0 {
		return spec.Identities
	}
	n := 0
	for _, s := range streams {
		n += len(s.Warm) + len(s.Timed)
	}
	return n
}

// streamDigest is the SHA-256 of the encoded op streams, warm-up included.
func streamDigest(streams [clients]stream) string {
	h := sha256.New()
	var b [11]byte
	for _, s := range streams {
		for _, part := range [][]op{s.Warm, s.Timed} {
			for _, o := range part {
				b[0], b[1], b[2] = byte(o.Kind), byte(o.Variant), byte(o.Conn)
				binary.BigEndian.PutUint32(b[3:], o.Ident)
				binary.BigEndian.PutUint32(b[7:], o.Target)
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- policies ---

func rel(attr string, op rsl.Op, vals ...string) *rsl.Relation {
	r := &rsl.Relation{Attribute: attr, Op: op}
	for _, v := range vals {
		r.Values = append(r.Values, rsl.Lit(v))
	}
	return r
}

// communityPolicy is the VO's policy: the P12 shape at policyRules
// statements (startup grants), plus org-wide grants for managing one's own
// jobs, discovery, and data access under dataDir.
func communityPolicy(shape string) (*policy.Policy, error) {
	var pol *policy.Policy
	switch shape {
	case "req":
		pol = workload.RequirementHeavyPolicy(policyRules)
	case "prefix":
		pol = workload.PrefixHeavyPolicy(policyRules)
	default:
		return nil, fmt.Errorf("unknown policy shape %q", shape)
	}
	pol.Statements = append(pol.Statements, &policy.Statement{
		Subject: gsi.DN(workload.P12OrgPrefix),
		Sets: []*policy.AssertionSet{
			{Clauses: []*rsl.Relation{
				rel(policy.AttrAction, rsl.OpEq, policy.ActionCancel, policy.ActionInformation, policy.ActionSignal),
				rel(policy.AttrJobowner, rsl.OpEq, policy.ValueSelf),
			}},
			{Clauses: []*rsl.Relation{
				rel(policy.AttrAction, rsl.OpEq, policy.ActionInformation),
				rel("querytype", rsl.OpEq, "discovery"),
			}},
			{Clauses: []*rsl.Relation{
				rel(policy.AttrAction, rsl.OpEq, "get", "put", "delete", "list"),
				rel("dir", rsl.OpEq, dataDir),
			}},
		},
	})
	return pol, nil
}

// localPolicyText is the resource owner's policy: org-wide grants under
// coarse caps, two requirements, and a few statements for other
// organisations that no benchmark identity matches.
const localPolicyText = `
` + workload.P12OrgPrefix + `: &(queue != fast)
` + workload.P12OrgPrefix + `: &(action = start)(maxtime<=120)
` + workload.P12OrgPrefix + `: &(action = start)(jobtag = ` + jobTag + `)(count<=64)
` + workload.P12OrgPrefix + `: &(action = cancel information signal)(jobowner = self)
` + workload.P12OrgPrefix + `: &(action = information)(querytype = discovery)
` + workload.P12OrgPrefix + `: &(action = get put delete list)(dir = ` + dataDir + `)
/O=Grid/OU=Ops: &(action = cancel information signal)(jobtag = ` + jobTag + `)
/O=Grid/OU=Ops: &(action = start)(executable = probe)(count<=1)
/O=Grid/OU=Guests: &(action = start)(executable = app)(count<=1)(maxtime<=10)
/O=Grid/OU=Guests: &(action = information)(jobowner = self)
`

func localPolicy() (*policy.Policy, error) {
	return policy.ParseString(localPolicyText, "local")
}

func policyDigest(p *policy.Policy) string {
	h := sha256.Sum256([]byte(p.Unparse()))
	return hex.EncodeToString(h[:])
}

// --- pinned inputs ---

// Digests of both policies, and of the seed-1 op streams at the frozen
// op counts. A mismatch means internal/workload or the generators above
// changed, so results would no longer be comparable
// with earlier ones; the run fails before anything is timed.
var pinnedPolicies = map[string]string{
	"req":    "aa90d1b87a62d4a194e839ecf2ab90757676d6c17a4ece50c2b176ec26a8672c",
	"prefix": "d18e57dbf3a53efa5b5cf87ebbe0b84c66ea946d0b89f9642466f6423b97b7ae",
	"local":  "e250b9aa3246221d93f95ebac96ddd363746f4b736bd44fc156644f76fab938d",
}

var pinnedStreams = map[string]string{
	"manage-reuse":  "bc4615855c77942d23743e4f761673e167c31f8adeb45ebf1a735aa62a3a9532",
	"connect-cold":  "b893b5729c8088f40eeea810c0281bc9c19c13bee193ec53b3f967bd25cb49df",
	"reconnect-hot": "d974932e527e9dc4d493a527d73c5df07a30531b3c8f902d8c0ccd60fc9c8ea9",
	"deny-mixed":    "fa9cbc269c44d3dda8be537ee9355b474b8f52918481aca7dd5df72b0c3dab17",
}

// checkPins compares the inputs of a run with the committed digests; the
// op stream's only when it is a pinned one.
func checkPins(spec *workloadSpec, pinnedStream bool, digests map[string]string) error {
	for _, src := range []string{spec.Shape, "local"} {
		if got, want := digests["policy:"+src], pinnedPolicies[src]; got != want {
			return fmt.Errorf("policy %q digest %s differs from the pinned %s", src, got, want)
		}
	}
	if !pinnedStream {
		return nil
	}
	if got, want := digests["stream"], pinnedStreams[spec.Name]; got != want {
		return fmt.Errorf("op stream digest %s differs from the pinned %s", got, want)
	}
	return nil
}

// referenceEffect decides a request the way the deployment's chain must:
// both sources through the reference interpreter, combined under
// require-all-permit (any deny refuses; at least one grant is needed).
func referenceEffect(community, local *policy.Policy, req *policy.Request) bool {
	permits := 0
	for _, p := range []*policy.Policy{community, local} {
		d := p.Evaluate(req)
		switch {
		case d.Allowed:
			permits++
		case d.Applicable:
			return false
		}
	}
	return permits > 0
}

// checkExpectedOutcomes verifies the by-construction outcome of every
// op kind × variant against the reference interpreter, for two subjects of
// the workload's subject class.
func checkExpectedOutcomes(shape string, community, local *policy.Policy) error {
	for _, i := range []int{0, 7} {
		self := workload.P12Subject(shape, i, policyRules)
		other := workload.P12Subject(shape, i+1, policyRules)
		jobSpec, err := rsl.ParseSpec(submitRSL(vOK))
		if err != nil {
			return err
		}
		for v := vOK; v < numVariants; v++ {
			var reqs []*policy.Request
			switch v {
			case vDenyForeign:
				for _, a := range []string{policy.ActionInformation, policy.ActionCancel} {
					reqs = append(reqs, &policy.Request{Subject: self, Action: a, JobOwner: other, Spec: jobSpec})
				}
			case vDenyDir:
				reqs = append(reqs, putRequest(self, op{Kind: kindPut, Variant: v}))
			default:
				spec, err := rsl.ParseSpec(submitRSL(v))
				if err != nil {
					return err
				}
				reqs = append(reqs, &policy.Request{Subject: self, Action: policy.ActionStart, Spec: spec})
			}
			if v == vOK {
				reqs = append(reqs,
					&policy.Request{Subject: self, Action: policy.ActionInformation, JobOwner: self, Spec: jobSpec},
					&policy.Request{Subject: self, Action: policy.ActionCancel, JobOwner: self, Spec: jobSpec},
					putRequest(self, op{Kind: kindPut}),
					&policy.Request{Subject: self, Action: policy.ActionInformation, Spec: discoverySpec()})
			}
			for _, r := range reqs {
				if got := referenceEffect(community, local, r); got != (v == vOK) {
					return fmt.Errorf("variant %s, action %s, subject %s: reference interpreter permits=%v", v, r.Action, r.Subject, got)
				}
			}
		}
	}
	return nil
}

// putRequest is the policy request gridftp.Server builds for a put.
func putRequest(subject gsi.DN, o op) *policy.Request {
	dir := putDir(o.Variant)
	return &policy.Request{
		Subject: subject,
		Action:  "put",
		Spec:    rsl.NewSpec().Set("path", dir+"/u0").Set("dir", dir).Set("size", "12"),
	}
}

func discoverySpec() *rsl.Spec { return rsl.NewSpec().Set("querytype", "discovery") }
