// Command benchmark measures the rramft system end to end on four
// workloads — the rramft-serve wire protocol, an in-process engine and a
// 3-replica cluster serving under a chaos campaign with on-line repair, and
// the paper's fault-tolerant training flow — and checks that every run's
// outputs are correct.
//
// Run it from the repository root through its launcher, which builds it
// from source first:
//
//	bash benchmark/run.sh --workload engine-chaos --seed 1
//	bash benchmark/run.sh --workload all --seed 1 --trace 1
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// of the same workload and seed reports the per-layer metrics instead and
// writes its spans as JSONL. The last line of standard output is one JSON
// object: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}. The
// process exits non-zero when a correctness check fails. README.md in this
// directory documents the workloads, the metrics and their caveats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. For train-ft the latency metrics time one training
// iteration, peak_per_s counts iterations per second, and accuracy is the
// trained model's final test accuracy.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_per_s", "1/s"},
	{"accuracy", "ratio"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.p999_ms", "ms"},
	{"loadgen.samples", "count"},
	{"loadgen.fail_share", "ratio"},
	{"serve.submit_us", "us"},
	{"serve.wait_ms.p50", "ms"},
	{"serve.wait_ms.p99", "ms"},
	{"serve.forward_ms.p50", "ms"},
	{"serve.deliver_us.p50", "us"},
	{"serve.engine_ms.p50", "ms"},
	{"serve.engine_ms.p99", "ms"},
	{"serve.forward_busy", "ratio"},
	{"serve.batches", "count"},
	{"serve.batch_size.mean", "rows"},
	{"protocol.decode_us", "us"},
	{"protocol.encode_us", "us"},
	{"protocol.req_bytes", "bytes"},
	{"nn.fc1.forward_us", "us"},
	{"nn.fc1.compute_us", "us"},
	{"nn.fc1.backward_us", "us"},
	{"nn.relu1.forward_us", "us"},
	{"nn.relu1.backward_us", "us"},
	{"nn.fc2.forward_us", "us"},
	{"nn.fc2.compute_us", "us"},
	{"nn.fc2.backward_us", "us"},
	{"nn.relu2.forward_us", "us"},
	{"nn.relu2.backward_us", "us"},
	{"nn.fc3.forward_us", "us"},
	{"nn.fc3.compute_us", "us"},
	{"nn.fc3.backward_us", "us"},
	{"mapping.fc1.read_us", "us"},
	{"mapping.fc1.apply_delta_us", "us"},
	{"mapping.fc2.read_us", "us"},
	{"mapping.fc2.apply_delta_us", "us"},
	{"mapping.fc3.read_us", "us"},
	{"mapping.fc3.apply_delta_us", "us"},
	{"repair.passes", "count"},
	{"repair.pass_ms", "ms"},
	{"repair.pass_ms.max", "ms"},
	{"repair.duty", "ratio"},
	{"repair.detect_ms", "ms"},
	{"repair.retest_ms", "ms"},
	{"repair.prune_score_ms", "ms"},
	{"repair.remap_ms", "ms"},
	{"repair.remap_free_ms", "ms"},
	{"repair.restore_ms", "ms"},
	{"repair.prune_install_ms", "ms"},
	{"repair.disconnect_ms", "ms"},
	{"repair.writes_per_pass", "count"},
	{"repair.useful_share", "ratio"},
	{"detect.cycles_per_pass", "count"},
	{"detect.est_faults", "count"},
	{"cluster.redispatch_share", "ratio"},
	{"cluster.rebuilds", "count"},
	{"cluster.build_model_ms", "ms"},
	{"cluster.probe_forward_ms", "ms"},
	{"chaos.events.burst", "count"},
	{"chaos.events.intermittent", "count"},
	{"chaos.events.disturb", "count"},
	{"chaos.events.drift", "count"},
	{"chaos.events.saturate", "count"},
	{"chaos.events.crash", "count"},
	{"chaos.events.stall", "count"},
	{"core.iter_ms", "ms"},
	{"core.forward_ms", "ms"},
	{"core.backward_ms", "ms"},
	{"core.apply_delta_ms", "ms"},
	{"core.maintain_ms", "ms"},
	{"core.eval_ms", "ms"},
	{"train.other_ms", "ms"},
	{"train.writes_per_iter", "count"},
	{"train.write_reduction", "ratio"},
}

// workload is one named input set of the benchmark. BENCHMARK.json and
// README.md record why each was chosen.
type workload struct {
	name string
	run  func(cfg config, rep *report) error
}

var workloads = []workload{
	{"wire-steady", runWireSteady},
	{"engine-chaos", runEngineChaos},
	{"cluster-chaos", runClusterChaos},
	{"train-ft", runTrainFT},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // build outputs and trace files
	root     string // repository root
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// trainIters is the length of one train-ft session.
	trainIters int
}

// report collects one run's metrics and correctness checks.
type report struct {
	e2e, layers       map[string]float64
	attempted, failed int64
	checks            []string
	ok                bool
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, ok: true}
}

// check records one correctness check; a failed one fails the run.
func (r *report) check(name string, pass bool, format string, args ...any) {
	status := "ok"
	if !pass {
		status = "FAILED"
		r.ok = false
	}
	r.checks = append(r.checks, fmt.Sprintf("check %-22s %-6s %s", name, status, fmt.Sprintf(format, args...)))
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet returns the metrics a run reports: end-to-end metrics untraced,
// per-layer metrics traced.
func (r *report) metricSet(traced bool) ([]metricDef, map[string]float64) {
	if traced {
		return perLayer, r.layers
	}
	return endToEnd, r.e2e
}

// result builds the result line of the run.
func (r *report) result(traced bool) result {
	defs, vals := r.metricSet(traced)
	res := result{Correct: r.ok, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}

// print writes the human-readable lines of a run.
func (r *report) print(name string, traced bool) {
	defs, vals := r.metricSet(traced)
	for _, d := range defs {
		fmt.Printf("%-14s %-28s %14.6g %s\n", name, d.name, vals[d.name], d.unit)
	}
	for _, c := range r.checks {
		fmt.Printf("%-14s %s\n", name, c)
	}
}

// cleanupList holds the stop functions of started child processes, so an
// interrupt can stop them before the process exits.
type cleanupList struct {
	mu  sync.Mutex
	fns []func()
}

var cleanups cleanupList

func (c *cleanupList) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *cleanupList) run() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// runOne runs one workload and returns its report; an error means the run
// could not complete at all.
func runOne(cfg config) (*report, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			rep := newReport()
			if err := w.run(cfg, rep); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			return rep, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", cfg.workload, strings.Join(names(), ", "))
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runAll runs every workload. With trace it runs each twice, untraced
// first — metric collection, once switched on for tracing, stays on for the
// rest of the process — and reports the tracing overhead.
func runAll(cfg config) (result, error) {
	all := result{Correct: true, Metrics: map[string]metric{}}
	untraced := map[string]*report{}
	passes := []bool{false}
	if cfg.trace {
		passes = append(passes, true)
	}
	for _, traced := range passes {
		for _, w := range workloads {
			c := cfg
			c.workload, c.trace = w.name, traced
			rep, err := runOne(c)
			if err != nil {
				return result{}, err
			}
			rep.print(w.name, traced)
			res := rep.result(traced)
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for k, m := range res.Metrics {
				all.Metrics[w.name+"/"+k] = m
			}
			if !traced {
				untraced[w.name] = rep
				continue
			}
			for _, k := range []string{"p50_ms", "peak_per_s"} {
				fmt.Printf("%-14s overhead %-19s traced/untraced %.3f\n", w.name, k,
					ratio(rep.e2e[k], untraced[w.name].e2e[k]))
			}
		}
	}
	return all, nil
}

func main() {
	cfg := config{setupReps: 5, trainIters: 2400}
	var traceFlag int
	var jsonOut string
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: all, "+strings.Join(names(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the order in which requests draw from the test set")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per workload")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the server build and trace files")
	flag.StringVar(&jsonOut, "json", "", "also write the result object to this file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: want --trace 0|1, --seconds > 0 and no positional arguments")
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		cleanups.run()
		fmt.Fprintf(os.Stderr, "benchmark: stopped by %v\n", s)
		os.Exit(130)
	}()

	res, err := run(cfg)
	cleanups.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if jsonOut != "" {
		if err := os.WriteFile(jsonOut, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run resolves the environment and runs the selected workload(s).
func run(cfg config) (result, error) {
	root, err := findRoot()
	if err != nil {
		return result{}, err
	}
	cfg.root = root
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	t0 := time.Now()
	defer func() { fmt.Fprintf(os.Stderr, "benchmark: finished in %s\n", time.Since(t0).Round(time.Millisecond)) }()
	if cfg.workload == "all" {
		return runAll(cfg)
	}
	rep, err := runOne(cfg)
	if err != nil {
		return result{}, err
	}
	rep.print(cfg.workload, cfg.trace)
	return rep.result(cfg.trace), nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
