package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/serve/capabilities"
	"repro/internal/serve/harness"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // exactly ten beyond
		{999, 0.99, 990, false}, // nine beyond
		{20, 0.50, 10, true},    // ten beyond the median
		{19, 0.50, 10, false},   // nine beyond
		{100, 0.90, 90, true},   // p90 of 100
		{1, 0.50, 1, false},     // a lone sample supports nothing
		{10000, 0.999, 9990, true},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample supported a percentile")
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := quartileSpread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{16, 1, 8, 2, 4}), (12-1.5)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestWindowedQuantileIgnoresOneStalledWindow(t *testing.T) {
	var at []int64
	var xs []float64
	for w := int64(0); w < 5; w++ {
		for i := 0; i < 2000; i++ {
			lat := 0.1
			if w == 2 && i%10 == 0 {
				lat = 8 // a host stall hits a tenth of one window
			}
			at = append(at, w*windowNs+int64(i))
			xs = append(xs, lat)
		}
	}
	v, n := windowedQuantile(at, xs, windowNs, 0.99)
	if n != 5 || v != 0.1 {
		t.Errorf("windowed p99 = %v over %d windows, want 0.1 over 5", v, n)
	}
	if p, _ := percentile(sortedCopy(xs), 0.99); p != 8 {
		t.Errorf("whole-step p99 = %v, want the stall's 8", p)
	}
}

// The peak rate leaves out the cut-short first and last windows and the
// odd stalled one.
func TestWindowRate(t *testing.T) {
	var at []int64
	add := func(w int64, n int) {
		for i := 0; i < n; i++ {
			at = append(at, w*windowNs+int64(i)*windowNs/int64(n))
		}
	}
	add(0, 10) // the phase starting
	add(1, 20000)
	add(2, 20000)
	add(3, 2000) // a stalled window
	add(4, 20000)
	add(5, 20000)
	add(6, 10) // the phase ending
	if got, want := windowRate(at, windowNs), 20000*1e9/float64(windowNs); got != want {
		t.Errorf("windowRate = %v, want %v", got, want)
	}
	if !math.IsNaN(windowRate(at[:20], windowNs)) {
		t.Error("two windows gave a rate")
	}
}

func TestTallyFailedRatio(t *testing.T) {
	tl := tally{Attempted: 100, Answered: 90, Pending: 6, Errors: 4, Stale: 2}
	if err := tl.check(); err != nil {
		t.Fatal(err)
	}
	if got := tl.failedRatio(); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("failedRatio = %v, want (100-90+2)/100", got)
	}
	if got := tl.failed(); got != 6 {
		t.Errorf("failed = %d, want errors + stale = 6", got)
	}
	var sum tally
	sum.add(tl)
	sum.add(tally{Attempted: 10, Answered: 10})
	if sum.Attempted != 110 || sum.Answered != 100 || sum.failedRatio() != 12.0/110 {
		t.Errorf("sum = %+v", sum)
	}
	if (tally{Attempted: 5, Answered: 3}).check() == nil {
		t.Error("a tally losing two operations passed its check")
	}
	if (tally{Attempted: 5, Answered: 6, Errors: -1}).check() == nil {
		t.Error("more answers than queries passed the check")
	}
	if (tally{Attempted: 2, Answered: 2, Stale: 3}).check() == nil {
		t.Error("more stale answers than answers passed the check")
	}
	if (tally{}).failedRatio() != 0 {
		t.Error("empty tally has a failed ratio")
	}
}

// curve is a synthetic server: p99 grows like an M/M/1 queue's toward cap.
func curve(base, cap float64) func(rate float64) stepResult {
	return func(rate float64) stepResult {
		p99 := math.Inf(1)
		if rate < cap {
			p99 = base / (1 - rate/cap)
		}
		return stepResult{Rate: rate, P99Ms: p99, P99OK: true, DrainMs: 1, LagP99Ms: 0.1}
	}
}

func TestSearchKneeOnSyntheticCurve(t *testing.T) {
	rule := sloRule{P99Ms: 10, DrainMs: 50}
	for _, cap := range []float64{45_000, 70_000, 150_000, 300_000} {
		probe := curve(1, cap)
		knee := cap * (1 - 1.0/rule.P99Ms) // where p99 reaches the limit
		fixed := []stepResult{probe(rateLight), probe(rateLoaded)}
		best, limited := searchKnee(fixed, geometric(rateLoaded, rampRatio, rampSteps), refineSteps, rule, probe)
		if limited {
			t.Errorf("cap %v: flagged as harness-limited", cap)
		}
		top := rateLoaded * math.Pow(rampRatio, rampSteps)
		if knee >= top {
			if best != top {
				t.Errorf("cap %v: best %v, want the top of the ramp %v", cap, best, top)
			}
			continue
		}
		grid := math.Pow(rampRatio, 1/math.Pow(2, refineSteps)) // one refined step
		if best > knee || best*grid*1.0001 < knee {
			t.Errorf("cap %v: best %v not within one refined step below the knee %v", cap, best, knee)
		}
	}
}

func TestSearchKneeRetriesAFailedStepOnce(t *testing.T) {
	rule := sloRule{P99Ms: 10, DrainMs: 50}
	smooth := curve(1, 1e9)
	calls := map[float64]int{}
	probe := func(rate float64) stepResult {
		calls[rate]++
		st := smooth(rate)
		if calls[rate] == 1 && rate > rateLoaded {
			st.P99Ms = 50 // a host stall on the first try only
		}
		return st
	}
	best, _ := searchKnee([]stepResult{smooth(rateLight), smooth(rateLoaded)},
		geometric(rateLoaded, rampRatio, rampSteps), refineSteps, rule, probe)
	if top := rateLoaded * math.Pow(rampRatio, rampSteps); best != top {
		t.Errorf("best %v, want %v: a transient failure ended the climb", best, top)
	}
}

func TestSearchKneeVerdicts(t *testing.T) {
	rule := sloRule{P99Ms: 10, DrainMs: 50}
	bad := func(rate float64) stepResult {
		return stepResult{Rate: rate, P99Ms: 40, P99OK: true, LagP99Ms: 0.1}
	}
	best, _ := searchKnee([]stepResult{bad(rateLight), bad(rateLoaded)}, nil, 2, rule, bad)
	if best != 0 {
		t.Errorf("light step failed but best = %v", best)
	}
	// A step only lateness failed counts as sustained, and flags the result.
	lagging := func(rate float64) stepResult {
		return stepResult{Rate: rate, P99Ms: 12, P99OK: true, LagP99Ms: 5}
	}
	ok := curve(1, 1e9)
	top := rateLoaded * math.Pow(rampRatio, rampSteps)
	best, limited := searchKnee([]stepResult{ok(rateLight), ok(rateLoaded)},
		geometric(rateLoaded, rampRatio, rampSteps), 0, rule, lagging)
	if best != top || !limited {
		t.Errorf("generator lag: best %v limited %v, want %v and flagged", best, limited, top)
	}
	best, limited = searchKnee([]stepResult{lagging(rateLight), lagging(rateLoaded)},
		geometric(rateLoaded, rampRatio, rampSteps), 0, rule, ok)
	if best != top || !limited {
		t.Errorf("late fixed steps: best %v limited %v, want %v and flagged", best, limited, top)
	}
	// An overloaded loaded step stops the climb at the light step.
	best, _ = searchKnee([]stepResult{ok(rateLight), bad(rateLoaded)},
		geometric(rateLoaded, rampRatio, rampSteps), 0, rule, bad)
	if best != rateLight {
		t.Errorf("overloaded at 40k: best %v, want %v", best, float64(rateLight))
	}
	for _, tc := range []struct {
		st   stepResult
		want verdict
	}{
		{stepResult{P99Ms: 9, P99OK: true, LagP99Ms: 1}, sustained},
		{stepResult{P99Ms: 9, P99OK: true, LagP99Ms: 8}, sustained}, // late, but within the limit
		{stepResult{P99Ms: 9, P99OK: false, LagP99Ms: 1}, overloaded},
		{stepResult{P99Ms: 30, P99OK: true, LagP99Ms: 5}, overloaded}, // late, but slow beyond the lag
		{stepResult{P99Ms: 12, P99OK: true, LagP99Ms: 5}, invalid},    // the lag explains the miss
		{stepResult{P99Ms: 5, P99OK: true, DrainMs: 80}, overloaded},  // backlog still draining
		{stepResult{P99Ms: 5, P99OK: true, Failed: 0.01}, overloaded}, // failures rose
	} {
		if got := rule.judge(0, tc.st); got != tc.want {
			t.Errorf("judge(%+v) = %v, want %v", tc.st, got, tc.want)
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	m := servedWriteSpec(1).mix
	zipf := rng.NewZipf(m.Items, m.Zipf)
	a := encodeSteps(drawStep(7, m, zipf, rateLight, 0.5), drawStep(7, m, zipf, rateLoaded, 0.5))
	b := encodeSteps(drawStep(7, m, zipf, rateLight, 0.5), drawStep(7, m, zipf, rateLoaded, 0.5))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed drew different schedules")
	}
	c := encodeSteps(drawStep(8, m, zipf, rateLight, 0.5), drawStep(8, m, zipf, rateLoaded, 0.5))
	if bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	m := servedWriteSpec(1).mix
	const sec = 4
	st := drawStep(3, m, rng.NewZipf(m.Items, m.Zipf), rateLoaded, sec)
	var wire, kinds [4]int
	dozing := make([]bool, m.Clients)
	dozedAt := make([]int64, m.Clients)
	var dozeNs int64
	last := int64(-1)
	for _, o := range st.Ops {
		if o.At < last || o.At >= sec*1e9 {
			t.Fatalf("op at %d out of order or past the step", o.At)
		}
		last = o.At
		kinds[o.Kind]++
		if o.Kind == opDoze {
			dozedAt[o.Client] = o.At
		} else if o.Kind == opCatchup {
			dozeNs += o.At - dozedAt[o.Client]
		}
		switch o.Kind {
		case opQuery:
			if dozing[o.Client] {
				t.Fatalf("client %d queried while dozing", o.Client)
			}
			wire[o.Kind]++
		case opDoze:
			if dozing[o.Client] {
				t.Fatalf("client %d dozed twice", o.Client)
			}
			dozing[o.Client] = true
		case opCatchup:
			if !dozing[o.Client] {
				t.Fatalf("client %d woke without dozing", o.Client)
			}
			dozing[o.Client] = false
			wire[o.Kind]++
		case opInject:
			wire[o.Kind]++
		}
	}
	if kinds[opDoze] != kinds[opCatchup] {
		t.Errorf("%d dozes but %d catch-ups", kinds[opDoze], kinds[opCatchup])
	}
	// Each client dozes SleepRatio of the time, and wakes once per doze
	// and awake stretch, whatever the step's rate.
	if got := float64(dozeNs) / (sec * 1e9 * float64(m.Clients)); math.Abs(got-m.SleepRatio) > 0.1 {
		t.Errorf("clients dozed %.3g of the time, want %v", got, m.SleepRatio)
	}
	wantWakes := float64(m.Clients) * sec * m.SleepRatio / m.DozeMeanSec
	if got := float64(kinds[opCatchup]); math.Abs(got-wantWakes) > 0.25*wantWakes {
		t.Errorf("%v catch-ups in %d s, want about %.0f", got, sec, wantWakes)
	}
	n := float64(wire[opQuery] + wire[opInject])
	if math.Abs(n-sec*rateLoaded) > 5*math.Sqrt(sec*rateLoaded) {
		t.Errorf("%v arrivals in %d s at %v/s", n, sec, float64(rateLoaded))
	}
	if share := float64(wire[opInject]) / n; math.Abs(share-m.InjectShare) > 0.003 {
		t.Errorf("update share %v, want %v", share, m.InjectShare)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/radio.(*FSMC).Advance":           "radio",
		"repro/internal/serve/harness.(*Client).Process": "serve",
		"repro/internal/core.(*Simulation).run.func1":    "core",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).getWithKey":        "runtime",
		"internal/runtime/syscall.Syscall6":              "syscall",
		"internal/poll.(*FD).Read":                       "syscall",
		"math.Pow":                                       "other",
		"sort.SearchFloat64s":                            "other",
		"":                                               "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAddProfileChargesSelfTime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	byLayer := map[string]float64{}
	if err := addProfile(buf.Bytes(), byLayer); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range byLayer {
		total += v
	}
	if total <= 0 {
		t.Fatalf("no CPU time in a 300 ms busy loop: %v (x=%v)", byLayer, x)
	}
	shares := map[string]float64{}
	cpuShares(byLayer, shares)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum > 1+1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].Name)
		}
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %v vs %v", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestStealShare(t *testing.T) {
	a := parseCPULine("cpu  1000 10 200 5000 7 3 2 40 0 0")
	b := parseCPULine("cpu  1300 10 250 9000 7 13 12 60 0 0")
	if a.busy != 1215 || a.steal != 40 {
		t.Fatalf("parsed %+v", a)
	}
	// 370 busy ticks and 20 stolen: idle time does not count.
	if got := stealShare(a, b); math.Abs(got-20.0/390) > 1e-12 {
		t.Errorf("steal share %v, want 20/390", got)
	}
	if stealShare(a, a) != 0 {
		t.Error("no time passed, yet steal")
	}
	if (parseCPULine("cpu0 1 2 3") != cpuTimes{}) {
		t.Error("a malformed line parsed")
	}
}

// An answer read while an update of its item awaits its reply is not
// cached: the truth cannot yet say whether a report already moved past the
// update. Once the reply dates it, the harness's put guard decides.
func TestNoPutWhileAnUpdateIsInFlight(t *testing.T) {
	tr := newTruth(4)
	cl := &logical{hc: harness.New(4, 4, rng.Stream(1, "test")), live: true}
	cl.hc.State.LastConsistent = 1000
	old := capabilities.Answer{Item: 1, Version: 0, AsOf: 500}

	tr.begin(1)
	cl.cacheAnswer(old, tr)
	if cl.hc.Cache.Contains(1) {
		t.Fatal("cached an answer while its item's update was in flight")
	}
	tr.settle(1, 1, 700)
	cl.cacheAnswer(old, tr)
	if cl.hc.Cache.Contains(1) {
		t.Fatal("cached a value updated between its answer and the consistency point")
	}
	cl.cacheAnswer(capabilities.Answer{Item: 2, Version: 0, AsOf: 500}, tr)
	if !cl.hc.Cache.Contains(2) {
		t.Fatal("did not cache an item with no update")
	}
	if n := cl.staleEntries(tr); n != 0 {
		t.Errorf("%d stale entries", n)
	}
}

// An answer that shows a version first only bounds its update time from
// above; the update's own reply then dates it exactly.
func TestTruthSettlesToTheUpdateStamp(t *testing.T) {
	tr := newTruth(4)
	tr.begin(3)
	tr.observe(capabilities.Answer{Item: 3, Version: 1, AsOf: 900})
	if _, at := tr.VersionedAt(3); at != des.Never {
		t.Errorf("update in flight, yet dated %d", at)
	}
	tr.settle(3, 1, 600)
	if ver, at := tr.VersionedAt(3); ver != 1 || at != 600 {
		t.Errorf("settled to version %d at %d, want 1 at 600", ver, at)
	}
	tr.begin(3)
	tr.settle(3, 0, 0) // a failed update changes nothing
	if ver, at := tr.VersionedAt(3); ver != 1 || at != 600 || tr.inFlight(3) {
		t.Errorf("after a failed update: version %d at %d, in flight %v", ver, at, tr.inFlight(3))
	}
}
