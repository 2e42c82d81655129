// Command bench is the repository's reference benchmark: four full-stack
// workloads against the paper's deployment (callout mode, Job-Manager
// placement, two policy sources under require-all-permit, production audit
// pipeline), seven bounded end-to-end metrics beside the failure count, and
// a traced run that prices every layer from outside. bench/README.md has
// the tables.
//
//	go run ./bench                                   # all workloads, tracing off
//	go run ./bench -workload deny-mixed -seed 2      # one workload
//	go run ./bench -workload connect-cold -trace 1   # per-layer metrics and spans
//	go run ./bench -compare a.json b.json            # two result sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: about how long the frozen
// op counts take on the reference box. The benchmark driver passes it as
// -seconds on every run; it selects nothing.
const runSeconds = 25

// envRecord says where a result was measured.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Transport  string `json:"transport"`
	LoadAvg1   string `json:"loadAvg1"`
}

func environment() envRecord {
	env := envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
		Clients:    clients,
		Transport:  "loopback TCP, single process",
		LoadAvg1:   loadAvg1(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

func loadAvg1() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Fields(string(data))[0]
}

// guard refuses a box with fewer cores than clients, where the clients
// would measure each other. The load average is recorded with every
// result, not warned about: the benchmark's own previous run keeps it
// above any useful threshold.
func guard() error {
	if runtime.NumCPU() < clients {
		return fmt.Errorf("%d clients need %d cores, this box has %d", clients, clients, runtime.NumCPU())
	}
	return nil
}

// resultSet is an -out file: every run appended to it.
type resultSet struct {
	Runs []*record `json:"runs"`
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func appendToSet(path string, rec *record) error {
	set, err := readSet(path)
	if errors.Is(err, os.ErrNotExist) {
		set, err = &resultSet{}, nil
	}
	if err != nil {
		return err
	}
	set.Runs = append(set.Runs, rec)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every metric of a run by name with its unit, then the
// sample counts and the remaining detail.
func report(rec *record, defs []metricDef) {
	fmt.Printf("== %s  seed=%d  ops=%d  failed=%d  trace=%v  commit=%s\n", rec.Workload, rec.Seed, rec.Ops, rec.Failed, rec.Trace, rec.Env.Commit)
	for _, k := range sortedKeys(rec.Digests) {
		fmt.Printf("   sha256 %-14s %s\n", k, rec.Digests[k])
	}
	for _, d := range defs {
		if m, ok := rec.Metrics[d.Name]; ok {
			fmt.Printf("   %-26s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, k := range sortedKeys(rec.Detail) {
		fmt.Printf("   . %-38s %14.4f\n", k, rec.Detail[k])
	}
	for _, p := range rec.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated op streams and identities")
	seconds := fs.Int("seconds", runSeconds, "BENCHMARK.json's run_seconds, as its driver passes it; op counts are frozen, so no other value runs")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	out := fs.String("out", "", "result set file to append the runs to")
	tmp := fs.String("tmp", filepath.Join("bench", "out"), "directory for audit logs and span files")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result set files")
		}
		return compareSets(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return errors.New("bad arguments")
	}
	if *seconds != runSeconds {
		return fmt.Errorf("-seconds %d: the op counts are frozen at what takes about %d s", *seconds, runSeconds)
	}
	specs := workloads
	if *name != "" {
		spec := findWorkload(*name)
		if spec == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		specs = []*workloadSpec{spec}
	}
	if err := guard(); err != nil {
		return err
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return err
	}

	incorrect := 0
	for _, spec := range specs {
		in, err := makeInputs(spec, *seed, spec.Ops/clients)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		var rec *record
		defs := endToEnd
		if *trace == 1 {
			rec, err = runTraced(in, *tmp)
			defs = perLayer
		} else {
			rec, err = runTimed(in, *tmp)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		report(rec, defs)
		if *out != "" {
			if err := appendToSet(*out, rec); err != nil {
				return err
			}
		}
		if !rec.Correct {
			incorrect++
		}
		// The last line of a run is its result, for whoever drives this.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		runtime.GC()
	}
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) incorrect", incorrect)
	}
	return nil
}
