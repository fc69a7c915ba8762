package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond it.
// A percentile without that support is not reported as measured.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// windowedQuantile splits samples xs, keyed by time at (ns), into windows
// of width ns, takes the q-quantile inside every window where it has
// minBeyond samples beyond it, and returns the median of those per-window
// quantiles with the number of windows that qualified (NaN and 0 when none
// did).
func windowedQuantile(at []int64, xs []float64, width int64, q float64) (float64, int) {
	per := windowQuantiles(at, xs, width, q)
	return median(per), len(per)
}

// windowQuantiles returns the q-quantile of every window of width ns that
// has minBeyond samples beyond it.
func windowQuantiles(at []int64, xs []float64, width int64, q float64) []float64 {
	byWin := map[int64][]float64{}
	for i, x := range xs {
		w := at[i] / width
		byWin[w] = append(byWin[w], x)
	}
	var per []float64
	for _, ws := range byWin {
		if v, ok := percentile(sortedCopy(ws), q); ok {
			per = append(per, v)
		}
	}
	return per
}

// windowRate counts the times at (ns) per window of width ns and returns
// the median count per second over the windows strictly between the first
// and the last, which the start and end of a phase cut short (NaN with
// fewer than three windows).
func windowRate(at []int64, width int64) float64 {
	if len(at) == 0 {
		return math.NaN()
	}
	lo, hi := at[0]/width, at[0]/width
	for _, t := range at {
		lo, hi = min(lo, t/width), max(hi, t/width)
	}
	if hi-lo < 2 {
		return math.NaN()
	}
	counts := make([]float64, hi-lo+1)
	for _, t := range at {
		counts[t/width-lo]++
	}
	return median(counts[1:len(counts)-1]) * 1e9 / float64(width)
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is (Q3 − Q1) / median with the quartiles computed the way
// Python's statistics.quantiles(values, n=4) does by default (the
// "exclusive" method): the spread the acceptance check applies to ten runs.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(j int) float64 { // j-th of the 3 cut points, exclusive method
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / median(s)
}

// failure accounting: every operation the benchmark attempts ends answered,
// failed, or still in flight at the end of the measured window.
type tally struct {
	Attempted int64 // operations sent
	Answered  int64 // operations that got a well-formed answer
	Pending   int64 // sent but still in flight when the window closed
	Errors    int64 // error replies, timeouts, refused or reset connections
	Stale     int64 // answers or cached entries older than a known update
}

// add folds o into t.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Answered += o.Answered
	t.Pending += o.Pending
	t.Errors += o.Errors
	t.Stale += o.Stale
}

// failed counts operations that definitely failed: error outcomes plus
// stale answers. In-flight operations are not failures.
func (t tally) failed() int64 { return t.Errors + t.Stale }

// failedRatio is (attempted − answered + stale) ÷ attempted: every
// operation that did not end with a fresh answer, in-flight ones included,
// over all attempted. Zero attempts give zero.
func (t tally) failedRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Attempted-t.Answered+t.Stale) / float64(t.Attempted)
}

// check verifies the tally adds up: no count is negative, every attempt
// is answered, pending or errored, and stale answers are a subset of
// answered ones.
func (t tally) check() error {
	if t.Attempted < 0 || t.Answered < 0 || t.Pending < 0 || t.Errors < 0 || t.Stale < 0 {
		return fmt.Errorf("tally: negative count in %+v", t)
	}
	if t.Answered+t.Pending+t.Errors != t.Attempted {
		return fmt.Errorf("tally: %d answered + %d pending + %d errors != %d attempted",
			t.Answered, t.Pending, t.Errors, t.Attempted)
	}
	if t.Stale > t.Answered {
		return fmt.Errorf("tally: %d stale of %d answered", t.Stale, t.Answered)
	}
	return nil
}
