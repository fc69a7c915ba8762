package radio

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// FSMC is a finite-state Markov chain abstraction of Rayleigh fading around
// a fixed mean SNR. The SNR axis is partitioned into K equal-stationary-
// probability states; per-slot transition probabilities to the adjacent
// states follow the level-crossing-rate formula for Rayleigh fading at
// Doppler frequency fd:
//
//	N(Γ) = sqrt(2π·Γ/γ̄) · fd · exp(−Γ/γ̄)
//	p(k→k+1) ≈ N(Γ_{k+1})·T_slot / π_k,   p(k→k−1) ≈ N(Γ_k)·T_slot / π_k
//
// (Wang & Moayeri 1995). The approximation requires fd·T_slot ≪ 1; the
// constructor enforces p_up + p_down ≤ 1 by clamping and reports the clamp
// through Strained so configurations that violate the regime are visible.
//
// Γ_k/γ̄ = −ln(1 − k/K) does not depend on γ̄, so neither do the transition
// probabilities: everything but the representative SNRs lives in a kernel
// shared by every chain with the same (fd, T_slot, K).
type FSMC struct {
	meanSNR float64   // γ̄, linear
	slotSec float64   // T_slot
	repDB   []float64 // representative SNR per state, dB
	*kernel
}

// kernel is the mean-independent part of a chain: the one-slot transition
// probabilities and the skip-ahead table of cumulative k-step rows. Kernels
// are immutable once built and shared process-wide through kernelFor.
type kernel struct {
	numStates int
	pUp       []float64
	pSum      []float64 // pUp + pDown
	strained  bool
	mixSlots  int64 // gap beyond which the chain is resampled stationary

	// cum holds the cumulative rows of Pᵏ for k = 1…steps, float32 and
	// without the always-1 last column: entry ((k−1)·K + s)·(K−1) + j is
	// P(X_k ≤ j | X_0 = s). steps is mixSlots−1, capped by maxSkipBytes;
	// longer gaps below the mixing horizon chain several draws.
	cum   []float32
	steps int64
}

// maxSkipBytes caps one skip-ahead table. The defaults (K = 8, 6 Hz, 2 ms:
// 666 rows of 8×7) need about 146 KiB; the cap only binds for very slow
// fading, where a gap then costs ⌈gap/steps⌉ draws instead of one.
const maxSkipBytes = 1 << 20

type kernelKey struct {
	doppler, slot float64
	states        int
}

// kernels memoizes one kernel per (fd, T_slot, K) for the whole process:
// every chain, channel, cell and replication — including replications built
// concurrently by a sweep — shares it.
var kernels struct {
	sync.Mutex
	m map[kernelKey]*kernel
}

func kernelFor(dopplerHz, slotSec float64, states int) *kernel {
	key := kernelKey{dopplerHz, slotSec, states}
	kernels.Lock()
	defer kernels.Unlock()
	if kn, ok := kernels.m[key]; ok {
		return kn
	}
	kn := newKernel(dopplerHz, slotSec, states)
	if kernels.m == nil {
		kernels.m = make(map[kernelKey]*kernel)
	}
	kernels.m[key] = kn
	return kn
}

func newKernel(dopplerHz, slotSec float64, states int) *kernel {
	kn := &kernel{
		numStates: states,
		pUp:       make([]float64, states),
		pSum:      make([]float64, states),
	}
	pDown := make([]float64, states)

	// Transition probabilities from level-crossing rates, evaluated at the
	// normalized thresholds x_k = Γ_k/γ̄ = −ln(1 − k/K).
	pi := 1.0 / float64(states)
	lcr := func(k int) float64 {
		if k <= 0 || k >= states {
			return 0
		}
		x := -math.Log(1 - float64(k)/float64(states))
		return math.Sqrt(2*math.Pi*x) * dopplerHz * math.Exp(-x)
	}
	for k := 0; k < states; k++ {
		up := lcr(k+1) * slotSec / pi
		down := lcr(k) * slotSec / pi
		if up+down > 1 {
			// Out of the slow-fading regime: renormalize and flag.
			scale := 1 / (up + down)
			up *= scale
			down *= scale
			kn.strained = true
		}
		kn.pUp[k] = up
		pDown[k] = down
		kn.pSum[k] = up + down
	}

	// Beyond ~K level-crossing times the chain has mixed; resampling the
	// stationary distribution is then both correct and O(1).
	mixSec := float64(states) / dopplerHz
	kn.mixSlots = int64(math.Ceil(mixSec / slotSec))
	if kn.mixSlots < 1 {
		kn.mixSlots = 1
	}

	// Skip-ahead rows: propagate each start state's distribution one slot at
	// a time through the tridiagonal P, recording the cumulative row after
	// every slot.
	width := states - 1
	kn.steps = kn.mixSlots - 1
	if maxSteps := int64(max(1, maxSkipBytes/(4*states*width))); kn.steps > maxSteps {
		kn.steps = maxSteps
	}
	kn.cum = make([]float32, kn.steps*int64(states*width))
	v := make([]float64, states)
	next := make([]float64, states)
	for s := 0; s < states; s++ {
		clear(v)
		v[s] = 1
		for k := int64(1); k <= kn.steps; k++ {
			total := 0.0
			for j := range next {
				p := v[j] * (1 - kn.pSum[j])
				if j > 0 {
					p += v[j-1] * kn.pUp[j-1]
				}
				if j < width {
					p += v[j+1] * pDown[j+1]
				}
				next[j] = p
				total += p
			}
			v, next = next, v
			row := kn.cum[((k-1)*int64(states)+int64(s))*int64(width):][:width]
			acc := 0.0
			for j := range row {
				acc += v[j]
				row[j] = float32(acc / total)
			}
		}
	}
	return kn
}

// draw samples X_k given X_0 = state from one uniform, by inverse CDF over
// the cumulative row. 1 ≤ k ≤ steps.
func (kn *kernel) draw(state int, k int64, r *rng.Source) int {
	width := kn.numStates - 1
	row := kn.cum[((k-1)*int64(kn.numStates)+int64(state))*int64(width):][:width]
	u := r.Float64()
	for j, c := range row {
		if u < float64(c) {
			return j
		}
	}
	return width
}

// NewFSMC builds a K-state chain for the given mean SNR (dB), Doppler (Hz),
// and slot duration (seconds). K must be ≥ 2.
func NewFSMC(meanSNRdB float64, dopplerHz float64, slotSec float64, states int) (*FSMC, error) {
	if states < 2 {
		return nil, fmt.Errorf("radio: FSMC needs at least 2 states, got %d", states)
	}
	if dopplerHz <= 0 || slotSec <= 0 {
		return nil, fmt.Errorf("radio: FSMC needs positive doppler and slot (fd=%v, T=%v)", dopplerHz, slotSec)
	}
	mean := FromDB(meanSNRdB)
	f := &FSMC{
		meanSNR: mean,
		slotSec: slotSec,
		repDB:   make([]float64, states),
		kernel:  kernelFor(dopplerHz, slotSec, states),
	}

	// Equal-probability thresholds of the exponential SNR distribution:
	// Γ_k = −γ̄·ln(1 − k/K), k = 0…K (Γ_0 = 0, Γ_K = ∞).
	thr := make([]float64, states+1)
	for k := 0; k <= states; k++ {
		frac := float64(k) / float64(states)
		if k == states {
			thr[k] = math.Inf(1)
		} else {
			thr[k] = -mean * math.Log(1-frac)
		}
	}

	// Representative SNR per state: conditional mean of the exponential over
	// [Γ_k, Γ_{k+1}), scaled by 1/π_k = K.
	// ∫_a^b γ·(1/γ̄)e^{−γ/γ̄} dγ = (a+γ̄)e^{−a/γ̄} − (b+γ̄)e^{−b/γ̄}.
	partial := func(x float64) float64 {
		if math.IsInf(x, 1) {
			return 0
		}
		return (x + mean) * math.Exp(-x/mean)
	}
	for k := 0; k < states; k++ {
		rep := float64(states) * (partial(thr[k]) - partial(thr[k+1]))
		if rep <= 0 {
			rep = thr[k] // degenerate numeric corner; fall back to lower edge
		}
		f.repDB[k] = ToDB(rep)
	}
	return f, nil
}

// States reports K.
func (f *FSMC) States() int { return f.numStates }

// Strained reports whether any transition probability had to be clamped,
// i.e. the (doppler, slot) pair is outside the FSMC validity regime.
func (f *FSMC) Strained() bool { return f.strained }

// RepSNRdB reports the representative SNR of a state in dB.
func (f *FSMC) RepSNRdB(state int) float64 { return f.repDB[state] }

// MeanSNRdB reports γ̄ in dB.
func (f *FSMC) MeanSNRdB() float64 { return ToDB(f.meanSNR) }

// SlotSec reports the chain's slot duration in seconds.
func (f *FSMC) SlotSec() float64 { return f.slotSec }

// StationarySample draws a state from the stationary distribution (uniform
// by construction).
func (f *FSMC) StationarySample(r *rng.Source) int {
	return r.Intn(f.numStates)
}

// Step advances the chain one slot from the given state.
func (f *FSMC) Step(state int, r *rng.Source) int {
	u := r.Float64()
	switch {
	case u < f.pUp[state]:
		return state + 1
	case u < f.pSum[state]:
		return state - 1
	default:
		return state
	}
}

// Advance moves the chain `slots` slots forward with one draw: the k-step
// state is distributed as row `state` of Pᵏ, sampled from the shared
// skip-ahead table. Gaps of at least the mixing horizon are resolved by a
// single stationary draw instead.
func (f *FSMC) Advance(state int, slots int64, r *rng.Source) int {
	if slots <= 0 {
		return state
	}
	if slots >= f.mixSlots {
		return f.StationarySample(r)
	}
	for slots > f.steps {
		state = f.draw(state, f.steps, r)
		slots -= f.steps
	}
	return f.draw(state, slots, r)
}

// StationaryDB reports the mean SNR in dB averaged over representative state
// values (a sanity quantity used in tests: it must sit close to γ̄).
func (f *FSMC) StationaryDB() float64 {
	sum := 0.0
	for _, db := range f.repDB {
		sum += FromDB(db)
	}
	return ToDB(sum / float64(f.numStates))
}
