// Command benchmark is the repository's standing benchmark: four wire
// workloads over a spawned orion-server, five end-to-end metrics each, and
// a per-layer cost ladder from a separate traced run. See README.md.
//
// The acceptance driver runs, from the repository root,
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. By hand:
//
//	bash benchmark/run.sh -workload all -seed 1      # every workload, both runs
//	bash benchmark/run.sh -workload all -smoke       # the same with 2 s windows
//	bash benchmark/run.sh -repeat 5                  # self-check of the spreads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envStamp says what machine and settings produced a result, so a number
// is never quoted without them.
type envStamp struct {
	Commit         string  `json:"commit"`
	GoVersion      string  `json:"go_version"`
	NumCPU         int     `json:"nproc"`
	ServerMaxProcs string  `json:"server_gomaxprocs"`
	FS             string  `json:"db_filesystem"`
	FsyncP50Ns     float64 `json:"fsync_ns_p50"`
	Seed           int64   `json:"seed"`
	WarmSeconds    float64 `json:"warm_seconds"`
	WindowSeconds  float64 `json:"window_seconds"`
	Setups         int     `json:"setups_per_run"`
	Clients        int     `json:"clients"`
}

func stamp(cfg *config, s *spec, seed int64, fsync float64) *envStamp {
	commit := "unknown" // a checkout that is not a git repository
	if _, err := os.Stat(filepath.Join(cfg.root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = cfg.root
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	procs := os.Getenv("GOMAXPROCS") // the child inherits it
	if procs == "" {
		procs = fmt.Sprint(runtime.NumCPU())
	}
	return &envStamp{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), ServerMaxProcs: procs,
		FS: fsType(cfg.outDir), FsyncP50Ns: fsync, Seed: seed,
		WarmSeconds: cfg.warm().Seconds(), WindowSeconds: cfg.measure().Seconds(),
		Setups: cfg.setups, Clients: s.clients,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line() driverLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{r.Values[d.name], d.unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "all", "read_hot, write_small, mixed_shared, bulk_lifecycle, or all")
	seed := flag.Int64("seed", 1, "seed of the generated op streams")
	seconds := flag.Float64("seconds", 18, "measured window; warm-up and the traced run's parts scale with it")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics (one workload)")
	smoke := flag.Bool("smoke", false, "2 s windows and one set-up per run instead of three")
	repeat := flag.Int("repeat", 0, "self-check: run the untraced suite N times on seeds seed..seed+N-1 and test every spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	setups := 3 // per untraced run; setup_s is their median
	if *smoke {
		*seconds, setups = 2, 1
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	var selected []*spec
	if *workload == "all" {
		for i := range specs {
			selected = append(selected, &specs[i])
		}
	} else if s := specByName(*workload); s != nil {
		selected = []*spec{s}
	} else {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	for _, s := range selected {
		if s.clients > runtime.NumCPU() {
			logf("%s: %d clients on %d CPUs: the generator competes with itself", s.name, s.clients, runtime.NumCPU())
		}
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	killChildrenOnSignal()
	cfg := &config{root: root, outDir: filepath.Join(root, "benchmark", "out"), seconds: *seconds, setups: setups}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.bin, err = buildServer(root); err != nil {
		return err
	}
	fsync, err := measureFsync(cfg.outDir)
	if err != nil {
		return err
	}

	switch {
	case *repeat > 0:
		return selfCheck(cfg, selected, *seed, *repeat, fsync)
	case len(selected) == 1:
		// Driver mode: one workload, one run, the contract's last line.
		s := selected[0]
		res := runWorkload(cfg, s, *seed, *trace == 1)
		res.Env = stamp(cfg, s, *seed, fsync)
		kind := "e2e"
		if res.Traced {
			kind = "layers"
		}
		if err := writeJSON(filepath.Join(cfg.outDir, fmt.Sprintf("result_%s_%s.json", s.name, kind)), res); err != nil {
			return err
		}
		if res.Error != "" {
			logf("%s: %s", s.name, res.Error)
		}
		if res.Attempted == 0 {
			return fmt.Errorf("%s: nothing measured", s.name)
		}
		b, err := json.Marshal(res.line())
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		if !res.Correct {
			return fmt.Errorf("%s: output check failed", s.name)
		}
		return nil
	default:
		return runAll(cfg, selected, *seed, fsync)
	}
}

// runAll runs both runs of every workload and prints every metric by
// name and unit, as a table and as one JSON document.
func runAll(cfg *config, selected []*spec, seed int64, fsync float64) error {
	type both struct {
		EndToEnd map[string]metricValue `json:"end_to_end"`
		PerLayer map[string]metricValue `json:"per_layer"`
		Correct  bool                   `json:"correct"`
	}
	doc := struct {
		Env       *envStamp       `json:"env"`
		Workloads map[string]both `json:"workloads"`
	}{stamp(cfg, selected[0], seed, fsync), map[string]both{}}
	var bad []string
	for _, s := range selected {
		e2e := runWorkload(cfg, s, seed, false)
		layers := runWorkload(cfg, s, seed, true)
		for _, r := range []*result{e2e, layers} {
			if !r.Correct {
				bad = append(bad, fmt.Sprintf("%s (traced=%v): %s", s.name, r.Traced, r.Error))
			}
		}
		doc.Workloads[s.name] = both{e2e.line().Metrics, layers.line().Metrics, e2e.Correct && layers.Correct}
		fmt.Printf("\n%s  (%d ops, %d failed, %d latency samples)\n", s.name, e2e.Attempted, e2e.Failed, e2e.Samples)
		for _, d := range endToEnd {
			fmt.Printf("  %-42s %14.4f %s\n", d.name, e2e.Values[d.name], d.unit)
		}
		for _, d := range perLayer {
			fmt.Printf("  %-42s %14.4f %s\n", d.name, layers.Values[d.name], d.unit)
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "result_all.json"), doc); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if len(bad) > 0 {
		return fmt.Errorf("output checks failed: %s", strings.Join(bad, "; "))
	}
	return nil
}

// selfCheck runs the untraced suite n times, each on another seed as the
// acceptance driver does, and tests the spread of every end-to-end
// metric (interquartile distance over median) against its bound.
func selfCheck(cfg *config, selected []*spec, seed int64, n int, fsync float64) error {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	for rep := 0; rep < n; rep++ {
		for _, s := range selected {
			res := runWorkload(cfg, s, seed+int64(rep), false)
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %s", s.name, seed+int64(rep), res.Error)
			}
			for _, d := range endToEnd {
				k := key{s.name, d.name}
				values[k] = append(values[k], res.Values[d.name])
			}
			logf("%s: repeat %d/%d done", s.name, rep+1, n)
		}
	}
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Median   float64   `json:"median"`
		Q1       float64   `json:"q1"`
		Q3       float64   `json:"q3"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
		Values   []float64 `json:"values"`
	}
	doc := struct {
		Env  *envStamp `json:"env"`
		Runs int       `json:"runs"`
		Rows []row     `json:"rows"`
	}{stamp(cfg, selected[0], seed, fsync), n, nil}
	var wide []string
	fmt.Printf("%-16s %-24s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, s := range selected {
		for _, d := range endToEnd {
			v := values[key{s.name, d.name}]
			q1, q3 := quartiles(v)
			r := row{s.name, d.name, d.unit, median(v), q1, q3, spread(v), d.bound, v}
			doc.Rows = append(doc.Rows, r)
			mark := ""
			if r.Spread > d.bound && d.name != "setup_s" {
				mark = "  > bound"
				wide = append(wide, s.name+"/"+d.name)
			}
			fmt.Printf("%-16s %-24s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%%s\n",
				r.Workload, r.Metric, r.Median, r.Q1, r.Q3, 100*r.Spread, 100*r.Bound, mark)
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "selfcheck.json"), doc); err != nil {
		return err
	}
	if len(wide) > 0 {
		return fmt.Errorf("spread above bound: %s", strings.Join(wide, ", "))
	}
	return nil
}
