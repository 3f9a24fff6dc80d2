// Command perfbench is the repository benchmark: one process that runs
// one of three closed-loop workloads (campaign, ppepd, fleet) against
// the public APIs of the experiments, daemon, serve, fleet, fxsim, core,
// simcache and trace packages, checks the outputs, and prints one JSON
// result line. See README.md for the workloads, the metric map and the
// noise rules the design follows.
//
// Usage (from the repository root, after building with run.py):
//
//	perfbench --workload ppepd --seed 1 --seconds 30 --trace 0 \
//	    --models perfbench/models.json --work .bench_build/work
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded around every public call and prints the
// per-layer metrics instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// Metric names. BENCHMARK.json lists the same names; TestMetricNames
// keeps the two in step.
var (
	endToEndNames = []string{
		"setup_s", "max_rss_mb", "op_ms", "ops_per_s",
		"power_pred_aae", "energy_pred_aae",
	}
	perLayerNames = []string{
		"fxsim.tick_us", "fxsim.read_us", "fxsim.fast_tick_share", "fxsim.fast_path_saving",
		"core.analyze_us", "core.table_us", "core.train_s",
		"serve.render_us", "serve.handler_us", "serve.predict_us", "serve.http_overhead_us",
		"serve.batch_bytes", "serve.predict_bytes", "serve.metrics_bytes",
		"daemon.sample_us", "daemon.sampler_us", "daemon.retries", "daemon.failures",
		"daemon.skips", "daemon.analyze_errors", "stages.reconcile_err",
		"simcache.hits", "simcache.misses", "simcache.bytes_written", "simcache.bytes_read",
		"simcache.cold_s", "simcache.warm_s",
		"experiments.fig2_s", "experiments.fig3_s", "experiments.fig6_s",
		"fleet.node_step_us", "fleet.snapshot_read_ns", "fleet.analyze_share",
		"fleet.parallel_efficiency", "fleet.allocs_per_interval",
		"op_tail_ms", "read_tail_us",
		"go.allocs_per_op", "go.gc_cycles", "go.gc_pause_ms",
	}
	units = map[string]string{
		"setup_s": "s", "max_rss_mb": "MB", "op_ms": "ms", "ops_per_s": "1/s",
		"power_pred_aae": "ratio", "energy_pred_aae": "ratio",

		"fxsim.tick_us": "us", "fxsim.read_us": "us", "fxsim.fast_tick_share": "ratio",
		"fxsim.fast_path_saving": "ratio",
		"core.analyze_us":        "us", "core.table_us": "us", "core.train_s": "s",
		"serve.render_us": "us", "serve.handler_us": "us", "serve.predict_us": "us",
		"serve.http_overhead_us": "us",
		"serve.batch_bytes":      "bytes", "serve.predict_bytes": "bytes", "serve.metrics_bytes": "bytes",
		"daemon.sample_us": "us", "daemon.sampler_us": "us", "daemon.retries": "count",
		"daemon.failures": "count", "daemon.skips": "count", "daemon.analyze_errors": "count",
		"stages.reconcile_err": "ratio",
		"simcache.hits":        "count", "simcache.misses": "count", "simcache.bytes_written": "bytes",
		"simcache.bytes_read": "bytes", "simcache.cold_s": "s", "simcache.warm_s": "s",
		"experiments.fig2_s": "s", "experiments.fig3_s": "s", "experiments.fig6_s": "s",
		"fleet.node_step_us": "us", "fleet.snapshot_read_ns": "ns", "fleet.analyze_share": "ratio",
		"fleet.parallel_efficiency": "ratio", "fleet.allocs_per_interval": "count",
		"op_tail_ms": "ms", "read_tail_us": "us",
		"go.allocs_per_op": "count", "go.gc_cycles": "count", "go.gc_pause_ms": "ms",
	}
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	models  string // saved model coefficients (ppep-train -save)
	work    string // scratch directory inside the checkout
	refBin  string // the same benchmark built with -tags ppep_reftick
}

// report is what a workload hands back: operation counts, the failed
// checks, and every metric it measured. Metrics a workload does not
// exercise stay absent and print as 0 (a layer the workload never
// calls did no work).
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records one verified operation outcome.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"campaign": runCampaign,
	"ppepd":    runPPEPD,
	"fleet":    runFleet,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: campaign, ppepd or fleet")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement window in host seconds")
		traced  = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		models  = flag.String("models", "perfbench/models.json", "saved model coefficients")
		work    = flag.String("work", ".bench_build/work", "scratch directory for cache files")
		refBin  = flag.String("reftick-bin", "", "benchmark binary built with -tags ppep_reftick")
		probe   = flag.Bool("fleet-probe", false, "internal: time one block of fleet advances (the traced fleet run's child)")
	)
	flag.Parse()
	if *probe {
		if err := fleetProbe(*seed, *models); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload campaign|ppepd|fleet, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traced == 1,
		models: *models, work: *work, refBin: *refBin}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(cfg.work, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.work = dir
	rep, err := run(cfg)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(*name, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the host record, any failed checks, and the result line.
func emit(name string, cfg config, rep *report) error {
	host := hostInfo()
	host["workload"] = name
	host["seed"] = cfg.seed
	host["trace"] = cfg.trace
	hb, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(hb))
	for _, p := range rep.problems {
		fmt.Println("check failed:", p)
	}
	names := endToEndNames
	if cfg.trace {
		names = perLayerNames
	}
	out := map[string]metricOut{}
	for _, n := range names {
		out[n] = metricOut{Value: rep.metrics[n], Unit: units[n]}
	}
	if rep.attempted < 1 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// hostInfo is the host block every record carries.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

// sortedKeys returns m's keys in order (deterministic printing).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
