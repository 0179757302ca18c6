// Command perfbench is the repository's benchmark: two seeded
// workloads driven through the public API, each answer checked against
// a reference before any timing counts.
//
//	bash perfbench/run.sh --workload paper-sys0 --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric; with --trace 1 spans are recorded
// around the calls into each layer and the object holds the per-layer
// metrics instead. --workload all runs every workload in turn, each in
// its own process. A failed correctness gate exits non-zero.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

//go:embed workloads.json
var configJSON []byte

// config is workloads.json: the parameters of each workload beside the
// reason it exists (its "rationale", read by people only).
type config struct {
	Workloads map[string]workloadConfig `json:"workloads"`
}

type workloadConfig struct {
	System    [3]int    `json:"system"`
	Times     []float64 `json:"times"`
	WarmStart bool      `json:"warm_start"`
	GateVec   float64   `json:"gate_vec"`

	RateRPS        float64            `json:"rate_rps"`
	Mix            map[string]float64 `json:"mix"`
	Levels         []float64          `json:"levels"`
	SourceSets     int                `json:"source_sets"`
	GridPool       int                `json:"grid_pool"`
	FreshGridShare float64            `json:"fresh_grid_share"`
	CurvePoints    int                `json:"curve_points"`
	CurveRange     [2]float64         `json:"curve_range"`
	BatchPoints    int                `json:"batch_points"`
	BatchRange     [2]float64         `json:"batch_range"`
	FreshAt        float64            `json:"fresh_targets_at"`
	FreshMinVoted  int                `json:"fresh_min_voted"`
	LimitMS        map[string]float64 `json:"limit_ms"`
	GateQuantile   float64            `json:"gate_quantile"`
	QuietPoints    int                `json:"quiet_points"`
	QuietShare     float64            `json:"quiet_share"`
}

// workers is the pool, fleet and server width of every workload: one
// per core of the two GOMAXPROCS allows.
const workers = 2

// readsPerSolve is how many seeded source weightings a batch workload
// reads from each solve.
const readsPerSolve = 8

// A run times setupReps set-ups at least, and more while they add up
// to under setupMinS seconds, so a set-up of milliseconds still yields
// a steady median.
const (
	setupReps = 3
	setupMinS = 1.0
)

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("perfbench: workloads.json: %w", err)
	}
	return c, nil
}

// metricDef is a metric as BENCHMARK.json names it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// catalogue is the part of BENCHMARK.json the benchmark reports by:
// the end-to-end metrics of the untraced run and the per-layer metrics
// of the traced one.
type catalogue struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalogue reads BENCHMARK.json from the repository root, where
// the benchmark runs.
func loadCatalogue() (catalogue, error) {
	var c catalogue
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return c, fmt.Errorf("perfbench: %w (run from the repository root)", err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("perfbench: BENCHMARK.json: %w", err)
	}
	return c, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run.
type run struct {
	name    string
	cfg     workloadConfig
	seed    int64
	rng     *rand.Rand
	seconds time.Duration
	outDir  string
	// capacity runs serve-mix closed-loop to measure its throughput.
	capacity bool
	tr       *tracer // nil in the untraced run
	led      ledger
	vals     map[string]float64 // metric values by BENCHMARK.json name
	record   map[string]any     // extra facts for the environment record
	gate     []string           // correctness gate failures
	// frontEnd holds the traced parse+compile and explore seconds, and
	// the state count, of each set-up.
	frontEnd [][3]float64
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

// tailCount is the sample count behind a reported tail percentile.
type tailCount struct {
	N         int     `json:"n"`
	P         float64 `json:"p"`
	Beyond    int     `json:"beyond"`
	Supported bool    `json:"supported"` // at least minBeyond samples beyond
}

// setTail sets a tail percentile of ascending samples and records the
// count behind it. A tail with fewer than minBeyond samples beyond it
// is still reported, flagged in the record and on standard error.
func (r *run) setTail(name string, sorted []float64, p float64) {
	r.set(name, percentile(sorted, p))
	tc := tailCount{N: len(sorted), P: p, Beyond: beyond(len(sorted), p)}
	tc.Supported = tc.Beyond >= minBeyond
	if !tc.Supported {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s has %d of %d samples beyond it, fewer than %d\n",
			r.name, name, tc.Beyond, tc.N, minBeyond)
	}
	tails, _ := r.record["tails"].(map[string]tailCount)
	if tails == nil {
		tails = map[string]tailCount{}
		r.record["tails"] = tails
	}
	tails[name] = tc
}

// moreSetups reports whether a run that has timed these set-ups should
// time another.
func (r *run) moreSetups(times []float64) bool {
	total := 0.0
	for _, t := range times {
		total += t
	}
	return len(times) < setupReps || (total < setupMinS && len(times) < 100)
}

// fail records a correctness gate failure.
func (r *run) fail(format string, args ...any) {
	r.gate = append(r.gate, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) error{
	"paper-sys0": runPaper,
	"serve-mix":  runServeMix,
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 35, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for trace files and references under construction")
	mkref := flag.Bool("mkref", false, "write the stored reference of --workload to --out instead of benchmarking")
	capacity := flag.Bool("capacity", false, "serve-mix only: send the seeded mix as fast as the server answers and print its throughput")
	flag.Parse()
	runtime.GOMAXPROCS(workers)

	cfg, err := loadConfig()
	if err != nil {
		fatal(err)
	}
	cat, err := loadCatalogue()
	if err != nil {
		fatal(err)
	}
	if *workload == "all" {
		os.Exit(runAll(os.Args[0], *seed, *seconds, *trace, *out))
	}
	fn, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("perfbench: unknown workload %q (have %s, all)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *mkref {
		if err := makeReference(*workload, cfg.Workloads[*workload], *out); err != nil {
			fatal(err)
		}
		return
	}
	r := &run{
		name: *workload, cfg: cfg.Workloads[*workload], capacity: *capacity,
		seed: *seed, rng: rand.New(rand.NewSource(*seed)),
		seconds: time.Duration(*seconds) * time.Second, outDir: *out,
		led: ledger{}, vals: map[string]float64{}, record: map[string]any{},
	}
	if *trace != 0 {
		r.tr = newTracer()
	}
	start := time.Now()
	if err := fn(r); err != nil {
		fatal(fmt.Errorf("perfbench: %s: %w", r.name, err))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(fmt.Errorf("perfbench: peak RSS: %w", err))
	}
	r.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	r.record["wall_s"] = time.Since(start).Seconds()
	os.Exit(finish(r, cat))
}

// finish prints the environment record, the accounting, every metric
// by name and unit, and the result line; it returns the exit code.
func finish(r *run, cat catalogue) int {
	env := environment(r)
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(line))
	line, _ = json.Marshal(map[string]any{"accounting": r.led})
	fmt.Println(string(line))

	list := cat.EndToEnd
	if r.tr != nil {
		list = cat.PerLayer
		if err := writeTrace(r, env); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	res := result{Correct: len(r.gate) == 0, Metrics: map[string]metric{}}
	for _, d := range list {
		v := r.vals[d.Name]
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("%s %s %.6g %s\n", r.name, d.Name, v, d.Unit)
	}
	// Values measured beside the list (the serve-mix latencies in the
	// untraced run, say) are printed for reading, not reported.
	for _, d := range append(cat.EndToEnd, cat.PerLayer...) {
		if _, listed := res.Metrics[d.Name]; !listed {
			if v, ok := r.vals[d.Name]; ok {
				fmt.Printf("%s %s %.6g %s (not reported in this mode)\n", r.name, d.Name, v, d.Unit)
			}
		}
	}
	res.Attempted, res.Failed, _ = r.led.totals()
	for _, g := range r.gate {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness gate: %s\n", r.name, g)
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTrace writes the spans and their per-name roll-up.
func writeTrace(r *run, env map[string]any) error {
	spans := r.tr.snapshot()
	totals := selfTimes(spans)
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := totals[n]
		fmt.Fprintf(os.Stderr, "span %-28s count %6d total %9.4fs self %9.4fs\n", n, t.Count, t.TotalS, t.SelfS)
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.name, r.seed))
	b, err := json.Marshal(map[string]any{"env": env, "totals": totals, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runAll runs each workload in its own process, so peak memory stays
// per workload, and fails if any of them does.
func runAll(self string, seed int64, seconds, trace int, out string) int {
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
