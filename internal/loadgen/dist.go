package loadgen

import (
	"fmt"
	"math/rand"
)

// Subject distribution names accepted by Point.Dist.
const (
	DistUniform = "uniform"
	DistZipf    = "zipf"
	DistHotKey  = "hotkey"
)

// Op kinds: which subsystem an operation drives.
const (
	OpStartup    = "startup"    // GRAM job request over TCP (full callout path)
	OpManagement = "management" // GRAM status request on the identity's own job
	OpGridFTP    = "gridftp"    // data-service put through the gridftp callout
	OpMDS        = "mds"        // in-process directory query through the MDS callout
)

// Connection modes: how the op reaches the gatekeeper.
const (
	// ConnReuse keeps the identity's pooled client and its warm
	// multiplexed connection.
	ConnReuse = "reuse"
	// ConnResume drops the pooled client's connection first, so the op
	// reconnects by GSI session resumption (ticket, no chain verify).
	ConnResume = "resume"
	// ConnFull uses a throwaway client. A GRAM client's session cache is
	// its own and starts empty, so the op pays a full GSI handshake; a
	// GridFTP client shares the process's cache, so its op resumes
	// whenever the process holds a ticket for that credential.
	ConnFull = "full"
)

// Op is one generated load operation. The stream of Ops for a (Point,
// seed) pair is deterministic: same inputs, byte-identical stream (see
// Encode and the distribution tests).
type Op struct {
	Seq      int    // position in the stream
	Identity int    // synthetic identity index in [0, Point.Identities)
	Kind     string // OpStartup, OpManagement, OpGridFTP or OpMDS
	Conn     string // ConnReuse, ConnResume or ConnFull
}

// sampler draws one identity index per call.
type sampler func() int

// newSampler builds the point's subject sampler over rng. Callers
// validate the point first; an unknown distribution panics.
func newSampler(p *Point, rng *rand.Rand) sampler {
	n := p.Identities
	switch p.Dist {
	case DistUniform:
		return func() int { return rng.Intn(n) }
	case DistZipf:
		s := p.ZipfS
		if s == 0 {
			s = DefaultZipfS
		}
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	case DistHotKey:
		hot := p.HotKeys
		if hot == 0 {
			hot = DefaultHotKeys
		}
		if hot > n {
			hot = n
		}
		frac := p.HotFraction
		if frac == 0 {
			frac = DefaultHotFraction
		}
		return func() int {
			if rng.Float64() < frac || hot == n {
				return rng.Intn(hot)
			}
			return hot + rng.Intn(n-hot)
		}
	default:
		panic(fmt.Sprintf("loadgen: unknown distribution %q", p.Dist))
	}
}

// pick draws from a cumulative weight table.
func pick(rng *rand.Rand, names []string, weights []float64) string {
	var total float64
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return names[i]
		}
	}
	return names[len(names)-1]
}

// Ops materializes the point's deterministic operation stream: p.Requests
// operations drawn from the subject distribution, the traffic mix and
// the connection-mode mix, all from one seeded source.
func Ops(p *Point, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	subject := newSampler(p, rng)
	kinds := []string{OpStartup, OpManagement, OpGridFTP, OpMDS}
	kindW := []float64{p.Mix.Startup, p.Mix.Management, p.Mix.GridFTP, p.Mix.MDS}
	conns := []string{ConnReuse, ConnResume, ConnFull}
	connW := []float64{p.Conn.Reuse, p.Conn.Resume, p.Conn.Full}
	out := make([]Op, p.Requests)
	for i := range out {
		out[i] = Op{
			Seq:      i,
			Identity: subject(),
			Kind:     pick(rng, kinds, kindW),
			Conn:     pick(rng, conns, connW),
		}
	}
	return out
}
