package loadgen

import (
	"fmt"
	"strings"
	"testing"
)

func testPoint(dist string, identities, requests int) *Point {
	p := &Point{
		Name:       "t",
		Identities: identities,
		Requests:   requests,
		Dist:       dist,
		Policy:     PolicyShape{Shape: ShapeExact},
	}
	p.Normalize()
	return p
}

// Same seed must yield a byte-identical request stream; a different
// seed must not.
func TestOpsDeterministic(t *testing.T) {
	p := testPoint(DistZipf, 1000, 500)
	p.Mix = Mix{Startup: 2, Management: 1, GridFTP: 1, MDS: 1}
	p.Conn = ConnMix{Reuse: 3, Resume: 1, Full: 1}
	encode := func(ops []Op) string {
		var sb strings.Builder
		for _, o := range ops {
			sb.WriteString(o.Encode())
		}
		return sb.String()
	}
	a, b := encode(Ops(p, 42)), encode(Ops(p, 42))
	if a != b {
		t.Fatal("same seed produced different streams")
	}
	if c := encode(Ops(p, 43)); c == a {
		t.Fatal("different seeds produced identical streams")
	}
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
}

// counts tallies identity draws per index.
func counts(ops []Op) map[int]int {
	out := make(map[int]int)
	for _, o := range ops {
		out[o.Identity]++
	}
	return out
}

func TestDistributionSkew(t *testing.T) {
	const n, reqs = 1000, 40000
	cases := []struct {
		name  string
		setup func(*Point)
		check func(t *testing.T, c map[int]int)
	}{
		{
			name:  "uniform-spread",
			setup: func(p *Point) { p.Dist = DistUniform },
			check: func(t *testing.T, c map[int]int) {
				// Expect ~40 draws per identity; no identity may be
				// wildly over-represented, and coverage must be broad.
				if len(c) < n*9/10 {
					t.Fatalf("uniform covered only %d/%d identities", len(c), n)
				}
				for id, k := range c {
					if k > 120 { // 3x the expectation
						t.Fatalf("identity %d drawn %d times under uniform", id, k)
					}
				}
			},
		},
		{
			name:  "zipf-head-heavy",
			setup: func(p *Point) { p.Dist = DistZipf; p.ZipfS = 1.3 },
			check: func(t *testing.T, c map[int]int) {
				top10 := 0
				for id := 0; id < 10; id++ {
					top10 += c[id]
				}
				frac := float64(top10) / reqs
				// Zipf s=1.3 over 1000 ranks puts well over half the
				// mass on the first ten; uniform would put 1% there.
				if frac < 0.55 || frac > 0.95 {
					t.Fatalf("zipf top-10 fraction = %.3f, want 0.55..0.95", frac)
				}
				if c[0] < c[9] {
					t.Fatalf("zipf rank 0 (%d) drawn less than rank 9 (%d)", c[0], c[9])
				}
			},
		},
		{
			name: "hotkey-fraction",
			setup: func(p *Point) {
				p.Dist = DistHotKey
				p.HotKeys = 10
				p.HotFraction = 0.9
			},
			check: func(t *testing.T, c map[int]int) {
				hot := 0
				for id := 0; id < 10; id++ {
					hot += c[id]
				}
				frac := float64(hot) / reqs
				// 90% ± sampling noise on 40k draws.
				if frac < 0.88 || frac > 0.92 {
					t.Fatalf("hot fraction = %.3f, want 0.90 ± 0.02", frac)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testPoint(DistUniform, n, reqs)
			tc.setup(p)
			tc.check(t, counts(Ops(p, 7)))
		})
	}
}

func TestMixRatios(t *testing.T) {
	p := testPoint(DistUniform, 100, 40000)
	p.Mix = Mix{Startup: 5, Management: 3, GridFTP: 1, MDS: 1}
	p.Conn = ConnMix{Reuse: 8, Resume: 1, Full: 1}
	kinds := map[string]int{}
	conns := map[string]int{}
	for _, o := range Ops(p, 11) {
		kinds[o.Kind]++
		conns[o.Conn]++
	}
	within := func(name string, got int, want float64) {
		frac := float64(got) / float64(p.Requests)
		if frac < want-0.02 || frac > want+0.02 {
			t.Errorf("%s fraction = %.3f, want %.2f ± 0.02", name, frac, want)
		}
	}
	within("startup", kinds[OpStartup], 0.5)
	within("management", kinds[OpManagement], 0.3)
	within("gridftp", kinds[OpGridFTP], 0.1)
	within("mds", kinds[OpMDS], 0.1)
	within("reuse", conns[ConnReuse], 0.8)
	within("resume", conns[ConnResume], 0.1)
	within("full", conns[ConnFull], 0.1)
}

// The zero-value mixes must normalize to something runnable.
func TestNormalizeDefaults(t *testing.T) {
	p := &Point{Name: "d", Identities: 10, Requests: 10, Dist: DistUniform,
		Policy: PolicyShape{Shape: ShapeReq}}
	p.Normalize()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, o := range Ops(p, 1) {
		if o.Kind != OpStartup || o.Conn != ConnReuse {
			t.Fatalf("default mix produced %s/%s, want startup/reuse", o.Kind, o.Conn)
		}
	}
	if p.Workers != DefaultWorkers || p.ZipfS != DefaultZipfS {
		t.Fatalf("defaults not applied: %+v", p)
	}
}

// Encode renders the op in a canonical single-line form, used by the
// determinism tests ("same seed → byte-identical request stream").
func (o Op) Encode() string {
	return fmt.Sprintf("%d %d %s %s\n", o.Seq, o.Identity, o.Kind, o.Conn)
}
