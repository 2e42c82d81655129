// The gatekeeper's audit flag surface, defined here so the daemon's
// flag registration, the pipeline defaults and the documented flag
// table (docs/AUDIT.md) share one source of truth — cmd/authlint's
// auditdoc check diffs the doc against FlagCatalog and fails CI when
// either side drifts.

package audit

import (
	"flag"
	"fmt"
	"strconv"

	"gridauth/internal/obs"
)

// FlagDesc describes one gatekeeper audit flag for catalog comparison
// and documentation rendering. Name carries no leading dash.
type FlagDesc struct {
	Name    string
	Default string
	Help    string
}

// FlagCatalog returns the gatekeeper's audit flags, in registration
// order. docs/AUDIT.md's flag table is checked against this by
// cmd/authlint.
func FlagCatalog() []FlagDesc {
	return []FlagDesc{
		{"audit-dir", "", "write hash-chained audit segments and sealed manifests into this directory (empty: in-memory sink only)"},
		{"audit-key", "", "Ed25519 seal key file (hex seed), created if missing (empty: ephemeral per-process key)"},
		{"audit-segment", strconv.Itoa(DefaultSegmentRecords), "records per segment before rotation and sealing"},
		{"audit-mode", ModeBlock.String(), "queue-full degraded mode: block (backpressure, lossless) or drop (shed and count)"},
	}
}

// Flags holds the parsed values of the catalog's flags.
type Flags struct {
	Dir     string
	Key     string
	Segment int
	Mode    string
}

// RegisterFlags defines the audit flags on fs, names, defaults and
// help text taken from FlagCatalog.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	cat := FlagCatalog()
	byName := make(map[string]FlagDesc, len(cat))
	for _, d := range cat {
		byName[d.Name] = d
	}
	str := func(name string, dst *string) {
		d := byName[name]
		fs.StringVar(dst, d.Name, d.Default, d.Help)
	}
	str("audit-dir", &f.Dir)
	str("audit-key", &f.Key)
	fs.IntVar(&f.Segment, "audit-segment", DefaultSegmentRecords, byName["audit-segment"].Help)
	str("audit-mode", &f.Mode)
	return f
}

// Build constructs the Log the flags describe; the writer's other
// sizes are the package constants. The returned Log must be Closed on
// shutdown to seal the final segment. Metrics may be nil.
func (f *Flags) Build(m *obs.Metrics) (*Log, error) {
	mode, err := ParseDegradedMode(f.Mode)
	if err != nil {
		return nil, err
	}
	cfg := Config{SegmentRecords: f.Segment, Mode: mode, Metrics: m}
	if f.Dir != "" {
		sink, err := NewDirSink(f.Dir)
		if err != nil {
			return nil, err
		}
		cfg.Sink = sink
	}
	if f.Key != "" {
		sealer, err := LoadOrCreateSealer(f.Key)
		if err != nil {
			return nil, err
		}
		cfg.Sealer = sealer
	}
	log, err := NewPipeline(cfg)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	return log, nil
}
