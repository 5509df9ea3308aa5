// Command perfbench is the repository benchmark: it runs one workload of
// the smtfetch simulator and its sweep service for a fixed amount of work,
// sized by --seconds, checks that the simulated results are correct, and
// prints its metrics.
//
//	perfbench --workload grid-detail --seed 1 --seconds 20 --trace 0
//
// Workloads are grid-detail, grid-forked-sampled and service-mixed (see
// README.md). With --trace 0 it prints the end-to-end metrics, measured
// with no instrumentation beyond the benchmark's own clocks; with
// --trace 1 it prints the per-layer metrics of a separate traced run.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {NAME: {"value": V, "unit": U}}}
//
// Every line before it is a human-readable note.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// jobs bounds the goroutines doing work at once in every workload: the
// sweep pool, the service's pools and dispatch, and the reference runs.
var jobs = runtime.NumCPU()

type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run. An operation is a cell
// for the grid workloads and a request for service-mixed; grid_s is one
// pass of the workload's batch: the whole grid, or one round of requests.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"grid_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"minstr_per_s", "Minstr/s"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"core.ns_per_cycle", "ns"},
	{"core.ns_per_instr", "ns"},
	{"core.allocs_per_kcycle", "count"},
	{"core.issue_pct", "%"},
	{"core.predict_pct", "%"},
	{"core.fetch_pct", "%"},
	{"core.writeback_pct", "%"},
	{"core.recover_pct", "%"},
	{"core.commit_pct", "%"},
	{"core.dispatch_pct", "%"},
	{"core.decode_pct", "%"},
	{"prog.stream_pct", "%"},
	{"smtfetch.new_ms", "ms"},
	{"smtfetch.warm_ms", "ms"},
	{"smtfetch.measure_ms", "ms"},
	{"smtfetch.sampled_ipc_err_pct", "%"},
	{"core.snapshot_ms", "ms"},
	{"core.snapshot_kb", "KiB"},
	{"core.restore_ms", "ms"},
	{"core.set_policy_ms", "ms"},
	{"experiment.cell_ms_p50", "ms"},
	{"experiment.cell_ms_max", "ms"},
	{"experiment.pool_busy_ratio", "ratio"},
	{"experiment.warm_builds", "count"},
	{"experiment.forks_per_warm", "ratio"},
	{"server.handler_ms_p50", "ms"},
	{"server.handler_ms_p99", "ms"},
	{"server.hit_ratio", "ratio"},
	{"server.snapshot_hit_ratio", "ratio"},
	{"server.sims_per_distinct_key", "ratio"},
	{"cluster.dispatch_ms_p50", "ms"},
	{"cluster.dispatches_per_req", "ratio"},
	{"cluster.redispatches", "count"},
	{"stats.ipc_mean", "instr/cycle"},
	{"fetch.ipfc", "instr/cycle"},
	{"fetch.block_len", "instr"},
	{"fetch.wrong_path_ratio", "ratio"},
	{"bpred.cond_mispredict_ratio", "ratio"},
	{"cache.icache_miss_ratio", "ratio"},
	{"cache.dcache_miss_ratio", "ratio"},
	{"cache.l2_miss_ratio", "ratio"},
	{"pipeline.rename_stall_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"runtime.peak_rss_mb", "MiB"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"grid-detail":         func(cfg runConfig) (*report, error) { return runGrid(gridDetail, cfg) },
	"grid-forked-sampled": func(cfg runConfig) (*report, error) { return runGrid(gridForkedSampled, cfg) },
	"service-mixed":       runService,
}

// report is a run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	notes     []string
}

func newReport() *report { return &report{correct: true, values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result is the final JSON line: the spec's metrics, with a metric the
// run did not measure reported as 0.
func (r *report) result(specs []metricSpec) jsonResult {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		out.Metrics[s.name] = jsonMetric{Value: r.values[s.name], Unit: s.unit}
	}
	return out
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	workload := flag.String("workload", "", "workload: grid-detail, grid-forked-sampled or service-mixed")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "seconds of work to run, at the reference host's nominal batch time")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload grid-detail|grid-forked-sampled|service-mixed, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		rep.set("runtime.peak_rss_mb", peakRSSMB())
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	fmt.Printf("workload %s seed %d trace %d, %d workers\n", *workload, cfg.seed, *trace, jobs)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("attempted %d failed %d error_ratio %.6f\n", rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
	for _, s := range specs {
		fmt.Printf("metric %s %v %s\n", s.name, rep.values[s.name], s.unit)
	}
	line, err := json.Marshal(rep.result(specs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}
