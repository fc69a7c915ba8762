package main

import "math"

// stepResult is what one load step reports to the capacity search.
type stepResult struct {
	Rate     float64
	Answers  int     // query answers timed
	P50Ms    float64 // query latency from the scheduled send
	P90Ms    float64
	P99Ms    float64
	P99OK    bool    // at least minBeyond answers beyond the p99
	Failed   float64 // failed ratio of the step's operations
	DrainMs  float64 // last answer after the last scheduled send
	LagP99Ms float64 // generator lateness: written minus scheduled
}

// sloRule decides whether a step sustained its offered rate.
type sloRule struct {
	P99Ms   float64 // limit on the p99 query latency
	DrainMs float64 // backlog limit: how long answers may trail the schedule
}

// verdict classifies one step.
type verdict int

const (
	sustained  verdict = iota
	overloaded         // the server missed the limit, or its backlog grew
	invalid            // only the generator's lateness missed the limit
)

func (v verdict) String() string {
	return [...]string{"sustained", "overloaded", "invalid"}[v]
}

// judge classifies cur; refFailed is the failed ratio of the last
// sustained step, which a sustained step may not exceed. Latency is timed
// from the scheduled send, so generator lag only adds to it: a step within
// the limit passed whatever its lag, and a step the limit would have passed
// but for its lag is invalid: it shows the generator's host stalling, not
// the server failing.
func (r sloRule) judge(refFailed float64, cur stepResult) verdict {
	switch {
	case !cur.P99OK, cur.P99Ms-cur.LagP99Ms > r.P99Ms, cur.DrainMs > r.DrainMs, cur.Failed > refFailed:
		return overloaded
	case cur.P99Ms > r.P99Ms:
		return invalid
	}
	return sustained
}

// searchKnee finds the highest offered rate the server sustains. The two
// fixed steps (light, then loaded) are already measured. From the highest
// sustained one it climbs the geometric ramp until a step fails, then
// bisects the bracketing interval geometrically refine times. A step that
// fails is run once more before the verdict stands, so one stall of the
// host does not end the climb. An invalid step counts as sustained: the
// server kept within the limit once the generator's own lateness is taken
// out, and on a shared host whose vCPUs stall for milliseconds a step can
// miss the limit on that alone. It returns the highest sustained rate (0
// when neither fixed step was sustained) and whether any step counted was
// invalid.
func searchKnee(fixed []stepResult, ramp []float64, refine int, rule sloRule,
	probe func(rate float64) stepResult) (best float64, harnessLimited bool) {
	lo, hi := 0.0, math.Inf(1)
	refFailed := 0.0
	// judged measures nothing new unless st's server failed: then it runs
	// st's rate once more and judges the second try.
	judged := func(st stepResult) (stepResult, bool) {
		v := rule.judge(refFailed, st)
		if v == overloaded {
			st = probe(st.Rate)
			v = rule.judge(refFailed, st)
		}
		if v == invalid {
			harnessLimited = true
		}
		return st, v != overloaded
	}
	try := func(st stepResult) bool {
		st, ok := judged(st)
		if ok {
			lo, refFailed = st.Rate, st.Failed
		} else {
			hi = st.Rate
		}
		return ok
	}
	for _, st := range fixed {
		if !try(st) {
			break
		}
	}
	if lo == 0 {
		return 0, harnessLimited
	}
	if math.IsInf(hi, 1) {
		for _, rate := range ramp {
			if rate > lo && !try(probe(rate)) {
				break
			}
		}
	}
	if !math.IsInf(hi, 1) {
		for i := 0; i < refine; i++ {
			try(probe(math.Sqrt(lo * hi)))
		}
	}
	return lo, harnessLimited
}
