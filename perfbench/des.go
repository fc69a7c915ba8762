package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ir"
	rmetrics "repro/internal/metrics"
	"repro/internal/obs"
)

// The DES workloads run in a child process of their own (the benchmark
// re-executes itself with -des-child), so the resident high-water mark the
// kernel reports for that child is the simulation's alone.

// desMaxFailedRatio is the uplink-collapse guard: a DES workload whose
// failed ratio (no faults are injected, so that is the share of measured
// queries not answered by the horizon, plus stale answers) exceeds it is
// reported invalid, not fast. At the seed, uir with half the clients dozing
// answered 96.7% of queries at 625 clients per cell but 0.5% at 1250 (the
// uplink collapses: events count contention retries, not work), so
// city-uplink runs at 500 per cell.
const desMaxFailedRatio = 0.1

// desSpec describes one DES workload. Its runs execute one at a time: two
// sweep runs sharing two CPUs spread the repetitions' throughput about three
// times wider (13–19% against 5–9% within a run on a 2-vCPU VM) for a figure
// that only doubles, and city-uplink is one run whose lanes use every CPU.
type desSpec struct {
	configs func(seed uint64) []core.Config
	// countReports attaches a counting Tracer. A Tracer forces the serial
	// path, so only single-cell workloads (serial anyway) carry one.
	countReports bool
}

var desSpecs = map[string]desSpec{
	"sweep-t1":    {configs: sweepConfigs, countReports: true},
	"city-uplink": {configs: cityConfigs},
}

// sweepConfigs is the T1 default matrix: every algorithm, one replication,
// at core.DefaultConfig (100 clients, one hour, traffic load 0.2).
func sweepConfigs(seed uint64) []core.Config {
	var cfgs []core.Config
	for _, a := range ir.Names {
		c := core.DefaultConfig()
		c.Seed = seed
		c.Algorithm = a
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// cityConfigs is 8,000 uir clients over a 16-cell grid (500 per cell), half
// of them dozing, with 5 s handoff checks and epoch-parallel lanes on every
// CPU: six simulated minutes, the first ninety seconds warm-up.
func cityConfigs(seed uint64) []core.Config {
	c := core.DefaultConfig()
	c.Seed = seed
	c.Algorithm = "uir"
	c.NumClients = 8000
	c.Workload.SleepRatio = 0.5
	c.Horizon = 6 * des.Minute
	c.Warmup = 90 * des.Second
	c.Topology.NumCells = 16
	c.Topology.CheckPeriod = 5 * des.Second
	c.Parallel = true
	c.ParallelWorkers = runtime.NumCPU()
	return []core.Config{c}
}

// desReport is what the DES child hands its parent on standard output.
type desReport struct {
	SetupS       []float64 // per set-up: NewSimulation summed over the workload's runs
	Throughput   []float64 // per repetition: measured sim-s ÷ unstolen wall s in Execute
	AnswerP50Ms  float64   // median simulated answer delay, first repetition
	Tally        tally     // first repetition
	Fingerprints []string  // one per run, first repetition
	Problems     []string
	Layer        map[string]float64 // traced runs only
}

// minReps and minSetups keep a short run's medians meaningful.
const (
	minReps   = 3
	minSetups = 15
)

// runSweep and runCity run the DES workloads from the parent.
func runSweep(opts options) (outcome, error) { return runDES("sweep-t1", opts) }
func runCity(opts options) (outcome, error)  { return runDES("city-uplink", opts) }

// runDES runs the workload in a child. A traced invocation runs two
// children for half the time each, untraced then traced, and reports the
// per-layer figures of the second plus each end-to-end figure's difference
// between them as tracing overhead.
func runDES(name string, opts options) (outcome, error) {
	if !opts.Trace {
		rep, e2e, err := spawnDES(name, opts, false)
		if err != nil {
			return outcome{}, err
		}
		return outcome{Tally: rep.Tally, MaxFailedRatio: desMaxFailedRatio, Metrics: e2e, Problems: rep.Problems}, nil
	}
	half := opts
	half.Seconds = opts.Seconds / 2
	baseRep, base, err := spawnDES(name, half, false)
	if err != nil {
		return outcome{}, err
	}
	rep, traced, err := spawnDES(name, half, true)
	if err != nil {
		return outcome{}, err
	}
	rep.Layer["load.failed_ratio"] = rep.Tally.failedRatio()
	return outcome{Tally: rep.Tally, MaxFailedRatio: desMaxFailedRatio,
		Problems: append(baseRep.Problems, rep.Problems...),
		Metrics:  tracedMetrics(name, rep.Layer, traced, base)}, nil
}

// spawnDES runs one child and derives the end-to-end figures from its
// report and its resource usage.
func spawnDES(name string, opts options, traced bool) (desReport, map[string]float64, error) {
	var rep desReport
	exe, err := os.Executable()
	if err != nil {
		return rep, nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-des-child", name,
		"-seed", fmt.Sprint(opts.Seed), "-seconds", fmt.Sprint(opts.Seconds), "-trace", tr)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	if err := cmd.Run(); err != nil {
		return rep, nil, fmt.Errorf("des child: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, nil, fmt.Errorf("des child output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return rep, nil, fmt.Errorf("des child: no resource usage")
	}
	e2e := map[string]float64{
		"setup_s":       median(rep.SetupS),
		"peak_rss_mib":  float64(ru.Maxrss) / 1024, // Linux reports KiB
		"throughput":    median(rep.Throughput),
		"answer_p50_ms": rep.AnswerP50Ms,
	}
	fmt.Fprintf(os.Stderr, "%s: %d repetitions, sim_s_per_wall_s %.6g (spread %.3g), setup %.4gs (%d samples)\n",
		name, len(rep.Throughput), e2e["throughput"], quartileSpread(rep.Throughput),
		e2e["setup_s"], len(rep.SetupS))
	return rep, e2e, nil
}

// desChildMain runs a DES workload in this process and writes its report
// to standard output.
func desChildMain(name string, opts options) error {
	spec, ok := desSpecs[name]
	if !ok {
		return fmt.Errorf("unknown DES workload %q", name)
	}
	rep, err := runDESReps(spec, opts)
	if err != nil {
		return err
	}
	for _, fp := range rep.Fingerprints {
		fmt.Fprintln(os.Stderr, "fingerprint", fp)
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// reportCounter is the benchmark's Tracer: it counts report broadcasts and
// the clients' report outcomes.
type reportCounter struct {
	obs.Base
	broadcast, processed int64
}

func (c *reportCounter) ReportBroadcast(obs.ReportBroadcastEvent) { c.broadcast++ }
func (c *reportCounter) ReportProcess(obs.ReportProcessEvent)     { c.processed++ }

// layerProbe accumulates what a traced child measures around Execute.
type layerProbe struct {
	cpu      map[string]float64 // self CPU ns per layer
	samples  []metrics.Sample
	gc, busy float64 // CPU seconds: GC, and all non-idle
	allocs   float64
	events   float64
	execSec  float64
}

var probeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func (p *layerProbe) read() [4]float64 {
	metrics.Read(p.samples)
	var v [4]float64
	for i, s := range p.samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		}
	}
	return v
}

// runDESReps runs repetitions of the workload until the time is up, and
// at least minReps of them, checking that every repetition reproduces the
// first's fingerprints exactly. Each repetition's line on standard error
// carries the share of CPU time the host stole from it.
func runDESReps(spec desSpec, opts options) (desReport, error) {
	var rep desReport
	var probe *layerProbe
	var counter *reportCounter
	if opts.Trace {
		probe = &layerProbe{cpu: map[string]float64{}}
		for _, n := range probeMetrics {
			probe.samples = append(probe.samples, metrics.Sample{Name: n})
		}
		if spec.countReports {
			counter = &reportCounter{}
		}
	}
	deadline := time.Now().Add(time.Duration(opts.Seconds * float64(time.Second)))
	for r := 0; r < minReps || time.Now().Before(deadline); r++ {
		cfgs := spec.configs(opts.Seed)
		if counter != nil && r == 0 {
			for i := range cfgs {
				cfgs[i].Tracer = counter
			}
		}
		meter := startSteal()
		setup, wall, stats, err := runOnce(cfgs, probe)
		if err != nil {
			return rep, err
		}
		steal := meter.share()
		measured := 0.0
		for _, st := range stats {
			measured += st.MeasuredSec
		}
		// Throughput counts the wall time the host did not steal.
		tp := measured / (wall * (1 - steal))
		fmt.Fprintf(os.Stderr, "repetition %d: %.6g sim-s/s, %.6g per raw wall second, %s\n",
			r, tp, measured/wall, stealNote(steal))
		rep.SetupS = append(rep.SetupS, setup)
		rep.Throughput = append(rep.Throughput, tp)
		fps := fingerprints(stats)
		if r == 0 {
			rep.Fingerprints = fps
			summarize(&rep, stats)
			if probe != nil {
				rep.Layer = desLayer(stats)
				if counter != nil {
					rep.Layer["ir.reports_broadcast"] = float64(counter.broadcast)
					rep.Layer["ir.reports_processed"] = float64(counter.processed)
				}
			}
		} else if !slices.Equal(fps, rep.Fingerprints) {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("repetition %d changed the simulated statistics: %v vs %v", r, fps, rep.Fingerprints))
		}
	}
	// Extra set-ups, so the set-up median rests on enough samples.
	for len(rep.SetupS) < minSetups {
		setup, _, err := build(spec.configs(opts.Seed))
		if err != nil {
			return rep, err
		}
		rep.SetupS = append(rep.SetupS, setup)
	}
	if probe != nil {
		cpuShares(probe.cpu, rep.Layer)
		rep.Layer["go.gc_cpu_share"] = probe.gc / probe.busy
		rep.Layer["go.allocs_per_event"] = probe.allocs / probe.events
		rep.Layer["des.events_per_s"] = probe.events / probe.execSec
	}
	return rep, nil
}

// build constructs the workload's simulations after a collection, so each
// set-up starts from the same heap state, and times it. NewSimulation
// validates the configuration first.
func build(cfgs []core.Config) (float64, []*core.Simulation, error) {
	runtime.GC()
	t0 := time.Now()
	sims := make([]*core.Simulation, len(cfgs))
	for i, c := range cfgs {
		s, err := core.NewSimulation(c)
		if err != nil {
			return 0, nil, err
		}
		sims[i] = s
	}
	return time.Since(t0).Seconds(), sims, nil
}

// runOnce builds the workload's simulations, then executes them one after
// another. It returns the set-up time, the wall time of the Execute phase,
// and each run's statistics in configuration order. With a probe, the
// Execute phase is CPU-profiled and its runtime counters taken.
func runOnce(cfgs []core.Config, probe *layerProbe) (setup, wall float64, stats []*core.RunStats, err error) {
	setup, sims, err := build(cfgs)
	if err != nil {
		return 0, 0, nil, err
	}
	var prof bytes.Buffer
	var before [4]float64
	if probe != nil {
		before = probe.read()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return 0, 0, nil, err
		}
	}
	stats = make([]*core.RunStats, len(sims))
	t0 := time.Now()
	for i, s := range sims {
		stats[i] = s.Execute()
	}
	wall = time.Since(t0).Seconds()
	if probe != nil {
		pprof.StopCPUProfile()
		after := probe.read()
		probe.gc += after[0] - before[0]
		probe.busy += (after[1] - after[2]) - (before[1] - before[2])
		probe.allocs += after[3] - before[3]
		probe.execSec += wall
		for _, st := range stats {
			probe.events += float64(st.Events)
		}
		if err := addProfile(prof.Bytes(), probe.cpu); err != nil {
			return 0, 0, nil, err
		}
	}
	return setup, wall, stats, nil
}

// fingerprints renders each run's simulated statistics exactly: two runs
// of the same model and seed print the same lines, whatever their speed.
func fingerprints(stats []*core.RunStats) []string {
	out := make([]string, len(stats))
	for i, st := range stats {
		out[i] = fmt.Sprintf("%s events=%d queries=%d answered=%d mean_delay=%.17g hit_ratio=%.17g",
			st.Algorithm, st.Events, st.Queries, st.Answered, st.MeanDelay, st.HitRatio)
	}
	return out
}

// summarize fills the report's tally, answer delays and correctness checks
// from one repetition's runs.
func summarize(rep *desReport, stats []*core.RunStats) {
	delays := rmetrics.NewDelaySketch()
	for _, st := range stats {
		// The workloads inject no faults, so a measured query ends answered
		// or still in flight at the horizon. (PendingAtEnd is no substitute:
		// it also counts queries made during warm-up.)
		answered := min(st.Answered, st.Queries)
		rep.Tally.add(tally{
			Attempted: int64(st.Queries),
			Answered:  int64(answered),
			Pending:   int64(st.Queries - answered),
			Stale:     int64(st.StaleViolations),
		})
		delays.Merge(st.DelaySketch)
	}
	if delays.Count() < 2*minBeyond {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d answers: too few for a median", delays.Count()))
	}
	rep.AnswerP50Ms = delays.Quantile(0.50) * 1e3
	if rep.Tally.Stale > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d stale answers", rep.Tally.Stale))
	}
}

// desLayer derives the per-layer counters of one repetition's runs.
func desLayer(stats []*core.RunStats) map[string]float64 {
	var q, ans, hits, decoded, lost, attempts, collisions, events, epochs, handoffs, bits float64
	var measured, util float64
	for _, st := range stats {
		q += float64(st.Queries)
		ans += float64(st.Answered)
		hits += float64(st.CacheHits)
		decoded += float64(st.ReportsDecoded)
		lost += float64(st.ReportsLost)
		attempts += float64(st.UplinkAttempts)
		collisions += float64(st.UplinkCollisions)
		events += float64(st.Events)
		epochs += float64(st.Epochs)
		handoffs += float64(st.Handoffs)
		bits += float64(st.IRBits + st.PiggyBits)
		measured += st.MeasuredSec
		util += st.DownlinkUtil
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"radio.report_decode_ratio":     ratio(decoded, decoded+lost),
		"mac.uplink_collision_ratio":    ratio(collisions, attempts),
		"mac.uplink_attempts_per_query": ratio(attempts, q),
		"mac.downlink_util":             util / float64(len(stats)),
		"des.events":                    events,
		"des.events_per_epoch":          ratio(events, epochs),
		"cache.hit_ratio":               ratio(hits, ans),
		"core.handoffs":                 handoffs,
		"core.answered_ratio":           ratio(ans, q),
		"ir.report_bits_per_sim_s":      ratio(bits, measured),
		"ir.reports_broadcast":          0,
		"ir.reports_processed":          0,
	}
}
