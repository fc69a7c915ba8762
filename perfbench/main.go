// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed number of seconds, checks the outputs for
// correctness, and prints one JSON object as its last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// With -trace 0 the metrics are the end-to-end figures of BENCHMARK.json;
// with -trace 1 the run is traced and the metrics are the per-layer figures,
// including each end-to-end figure's tracing overhead. Diagnostics (run
// fingerprints, per-step load results, the failed ratio) go to standard
// error. Workloads, metrics and layers are documented in README.md.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload sweep-t1 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the figures a user of the system sees, measured with
// tracing off, on every workload. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"throughput", "1/s"},
	{"answer_p50_ms", "ms"},
}

// perLayer are the traced run's figures, on every workload; a layer a
// workload does not run reads 0 there (README.md lists which apply where).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"radio.cpu_share", "ratio"}, {"rng.cpu_share", "ratio"}, {"mac.cpu_share", "ratio"},
		{"des.cpu_share", "ratio"}, {"cache.cpu_share", "ratio"}, {"topology.cpu_share", "ratio"},
		{"mobility.cpu_share", "ratio"}, {"core.cpu_share", "ratio"}, {"ir.cpu_share", "ratio"},
		{"db.cpu_share", "ratio"}, {"serve.cpu_share", "ratio"}, {"syscall.cpu_share", "ratio"},
		{"runtime.cpu_share", "ratio"},
		{"radio.report_decode_ratio", "ratio"},
		{"mac.uplink_collision_ratio", "ratio"}, {"mac.uplink_attempts_per_query", "count"},
		{"mac.downlink_util", "ratio"},
		{"des.events", "count"}, {"des.events_per_s", "1/s"}, {"des.events_per_epoch", "count"},
		{"cache.hit_ratio", "ratio"}, {"core.handoffs", "count"}, {"core.answered_ratio", "ratio"},
		{"ir.report_bits_per_sim_s", "bit/s"}, {"ir.reports_broadcast", "count"},
		{"ir.reports_processed", "count"},
		{"go.allocs_per_event", "count"}, {"go.gc_cpu_share", "ratio"},
		{"engine.query_ns", "ns"}, {"engine.digest_bytes", "B"}, {"engine.catchup_ns", "ns"},
		{"engine.catchup_bytes", "B"}, {"engine.inject_ns", "ns"},
		{"actor.hop_ns", "ns"}, {"actor.queue_max", "count"},
		{"wire.rtt_p50_us", "us"}, {"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"},
		{"rest.inject_rtt_p50_ms", "ms"},
		{"udp.datagrams_per_s", "1/s"}, {"udp.loss_injected", "count"},
		{"udp.recovery_catchups", "count"}, {"harness.process_wire_ns", "ns"},
		{"generator.lag_p99_ms", "ms"},
		{"span.write_to_read_p50_ms", "ms"}, {"span.decode_p50_us", "us"},
		{"load.p90_ms_10k", "ms"}, {"load.p99_ms_10k", "ms"}, {"load.p50_ms_40k", "ms"},
		{"load.p99_ms_40k", "ms"},
		{"load.max_qps_at_slo", "1/s"},
		{"load.catchup_p99_ms", "ms"},
		{"load.failed_ratio", "ratio"},
	}
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"overhead." + m.Name, m.Unit})
	}
	return defs
}()

// options are the command-line settings of one invocation.
type options struct {
	Workload  string
	Seed      uint64
	Seconds   float64
	Trace     bool
	Wdcserved string // path of the wdcserved binary the served workloads spawn
}

// outcome is what a workload run hands back: its tally, the failed ratio
// it may reach and still count as correct, the metrics it measured, and
// any correctness failures.
type outcome struct {
	Tally          tally
	MaxFailedRatio float64
	Metrics        map[string]float64
	Problems       []string
}

// workload is one benchmark input; BENCHMARK.json and README.md give the
// reason for each.
type workload struct {
	Name string
	Run  func(opts options) (outcome, error)
}

// workloads are the benchmark's inputs, in BENCHMARK.json order.
var workloads = []workload{
	{"sweep-t1", runSweep},
	{"city-uplink", runCity},
	{"served-read", runServedRead},
}

// heldOut are workloads that run by name but are not in BENCHMARK.json.
// served-write finds stale answers in a few runs in a hundred: wall-clock
// wdcserved can stamp an update with the microsecond of the report built
// just before it, so no report or catch-up ever lists the update (README.md,
// "A defect the benchmark finds"). It returns to the list once the server
// is fixed.
var heldOut = []workload{
	{"served-write", runServedWrite},
}

func main() {
	var opts options
	var traceFlag int
	var child string
	var spin bool
	flag.StringVar(&opts.Workload, "workload", "", "workload name")
	flag.Uint64Var(&opts.Seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&opts.Seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints per-layer metrics")
	flag.StringVar(&opts.Wdcserved, "wdcserved", "", "wdcserved binary for the served workloads")
	flag.StringVar(&child, "des-child", "", "internal: run a DES workload in this process")
	flag.BoolVar(&spin, "spin", false, "internal: keep one CPU from halting (see spinMain)")
	flag.Parse()
	opts.Trace = traceFlag != 0
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	if spin {
		err := spinMain()
		fmt.Fprintln(os.Stderr, "perfbench: spinner:", err)
		os.Exit(1)
	}
	if child != "" {
		if err := desChildMain(child, opts); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for _, ws := range [][]workload{workloads, heldOut} {
		for i := range ws {
			if ws[i].Name == opts.Workload {
				w = &ws[i]
			}
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", opts.Workload)
		os.Exit(2)
	}
	if opts.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	out, err := w.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	res, err := report(out, opts.Trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report checks the outcome and shapes it into the result line: every
// metric of the active set must have been measured, and any correctness
// problem clears the verdict.
func report(out outcome, traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if err := out.Tally.check(); err != nil {
		out.Problems = append(out.Problems, err.Error())
	}
	if r := out.Tally.failedRatio(); r > out.MaxFailedRatio {
		out.Problems = append(out.Problems, fmt.Sprintf(
			"failed ratio %.4g (%d of %d operations unanswered or stale) exceeds the bound %g: the run is invalid, not fast",
			r, out.Tally.Attempted-out.Tally.Answered+out.Tally.Stale, out.Tally.Attempted, out.MaxFailedRatio))
	}
	res := result{
		Correct:   len(out.Problems) == 0 && out.Tally.Stale == 0,
		Attempted: out.Tally.Attempted,
		Failed:    out.Tally.failed(),
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not measured: %v", missing)
	}
	fmt.Fprintf(os.Stderr, "failed_ratio %.6g (%d attempted, %d answered, %d in flight, %d errors, %d stale)\n",
		out.Tally.failedRatio(), out.Tally.Attempted, out.Tally.Answered, out.Tally.Pending,
		out.Tally.Errors, out.Tally.Stale)
	for _, p := range out.Problems {
		fmt.Fprintln(os.Stderr, "INCORRECT:", p)
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operations attempted")
	}
	return res, nil
}

// tracedMetrics completes a traced run's per-layer metrics: the tracing
// overhead of every end-to-end metric (traced − untraced), and 0 for each
// layer the workload does not run, named on standard error.
func tracedMetrics(workload string, layer, traced, untraced map[string]float64) map[string]float64 {
	for _, d := range endToEnd {
		layer["overhead."+d.Name] = traced[d.Name] - untraced[d.Name]
	}
	var na []string
	for _, d := range perLayer {
		if _, ok := layer[d.Name]; !ok {
			layer[d.Name] = 0
			na = append(na, d.Name)
		}
	}
	if len(na) > 0 {
		fmt.Fprintf(os.Stderr, "%s: not exercised, reported as 0: %v\n", workload, na)
	}
	return layer
}

// childAttr makes a child process die with the benchmark: if the benchmark
// is killed before it can stop a wdcserved or a DES child, the kernel sends
// the child SIGKILL rather than leave it running.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
