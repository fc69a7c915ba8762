package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/rng"
)

// opKind is what one scheduled operation does.
type opKind uint8

const (
	opQuery   opKind = iota // item query on the TCP plane
	opCatchup               // a waking client's catch-up on the TCP plane
	opInject                // database update on the REST plane
	opDoze                  // the client stops listening (no traffic)
)

// op is one entry of the open-loop schedule. At is the intended send time
// in nanoseconds after the step starts; latency is timed from it. A doze
// and the catch-up that ends it are the two turns of one client's doze.
type op struct {
	At     int64
	Client int32 // logical client (unused for injects)
	Item   int32 // queried or updated item (unused for catch-ups and dozes)
	Kind   opKind
}

// mix is the operation mix of a served workload. The step's arrivals are
// queries and, with InjectShare, REST updates. Apart from them, each client
// alternates on its own between awake and dozing: a doze lasts DozeMeanSec
// on average, the client dozes SleepRatio of the time, and it catches up
// when it wakes. So catch-ups come at a rate set by the fleet, whatever the
// step's rate.
type mix struct {
	Clients     int     // logical client fleet
	Items       int     // item universe
	Zipf        float64 // query skew
	InjectShare float64 // share of arrivals that are REST updates
	SleepRatio  float64 // share of the time a client dozes (0: never)
	DozeMeanSec float64 // mean doze
}

// step is one fixed-rate stretch of the open-loop schedule.
type step struct {
	Rate float64 // offered wire operations per second
	Sec  float64 // duration
	Ops  []op    // sorted by At
}

// genStep draws one step's schedule: Poisson arrivals at rate, each a
// query or an update, and the clients' doze turns. Each client starts the
// step in the steady state (dozing with probability SleepRatio), and every
// client dozing at the end wakes just before it, so each doze ends with a
// catch-up inside the step. A dozing client is not picked for queries.
// Every draw comes from src, so the schedule is a pure function of the seed
// and the step's parameters.
func genStep(src *rng.Source, zipf *rng.Zipf, m mix, rate, sec float64) step {
	st := step{Rate: rate, Sec: sec}
	end := int64(sec * 1e9)
	dozing := make([]bool, m.Clients)
	st.Ops = make([]op, 0, int(rate*sec*1.05)+16)
	var turns turnHeap
	after := func(t int64, meanSec float64) int64 { return t + int64(src.Exp(1/meanSec)*1e9) }
	awakeMeanSec := 0.0
	if m.SleepRatio > 0 {
		awakeMeanSec = m.DozeMeanSec * (1 - m.SleepRatio) / m.SleepRatio
		for c := range dozing {
			if src.Float64() < m.SleepRatio {
				dozing[c] = true
				st.Ops = append(st.Ops, op{Client: int32(c), Kind: opDoze})
				heap.Push(&turns, op{At: after(0, m.DozeMeanSec), Client: int32(c), Kind: opCatchup})
			} else {
				heap.Push(&turns, op{At: after(0, awakeMeanSec), Client: int32(c), Kind: opDoze})
			}
		}
	}
	turn := func(upTo int64) {
		for len(turns) > 0 && turns[0].At <= upTo {
			o := heap.Pop(&turns).(op)
			if o.At >= end {
				if o.Kind == opDoze {
					continue // awake to the end
				}
				o.At = end - 1
			}
			dozing[o.Client] = o.Kind == opDoze
			st.Ops = append(st.Ops, o)
			if o.Kind == opDoze {
				heap.Push(&turns, op{At: after(o.At, m.DozeMeanSec), Client: o.Client, Kind: opCatchup})
			} else if o.At < end-1 {
				heap.Push(&turns, op{At: after(o.At, awakeMeanSec), Client: o.Client, Kind: opDoze})
			}
		}
	}
	t := int64(0)
	for {
		t += int64(src.Exp(rate) * 1e9)
		if t >= end {
			break
		}
		turn(t)
		if src.Float64() < m.InjectShare {
			st.Ops = append(st.Ops, op{At: t, Item: int32(src.Intn(m.Items)), Kind: opInject})
			continue
		}
		c, ok := pickAwake(src, dozing)
		if !ok {
			continue
		}
		st.Ops = append(st.Ops, op{At: t, Client: int32(c), Item: int32(zipf.Sample(src)), Kind: opQuery})
	}
	turn(math.MaxInt64)
	return st
}

// pickAwake draws a client uniformly among those not dozing (false when all
// are).
func pickAwake(src *rng.Source, dozing []bool) (int, bool) {
	for tries := 0; tries < 4*len(dozing); tries++ {
		if c := src.Intn(len(dozing)); !dozing[c] {
			return c, true
		}
	}
	for c, d := range dozing {
		if !d {
			return c, true
		}
	}
	return 0, false
}

// turnHeap orders pending doze turns by time, then client, so ties pop
// deterministically.
type turnHeap []op

func (h turnHeap) Len() int { return len(h) }
func (h turnHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].Client < h[j].Client
}
func (h turnHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *turnHeap) Push(x any)   { *h = append(*h, x.(op)) }
func (h *turnHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// The load shape every served workload shares.
const (
	rateLight   = 10_000 // first fixed step, ops/s
	rateLoaded  = 40_000 // second fixed step, ops/s; the ramp starts here
	rampRatio   = 1.4142135623730951
	rampSteps   = 5 // 40k·√2^5 ≈ 226k ops/s at most
	refineSteps = 3 // geometric bisections once the ramp brackets the knee
)

// stepSeconds splits a run of the given length: the warm-up gets 5%, each
// of the two halves of the light step 10%, the loaded step 15%, the
// saturation phase 40%, and, in a traced run, each ramp or refinement step
// of the capacity search 6%.
func stepSeconds(total float64) (warm, light, loaded, saturate, ramp float64) {
	return 0.05 * total, 0.10 * total, 0.15 * total, 0.40 * total, 0.06 * total
}

// drawStep draws the schedule of the step at rate from its own named
// stream of the seed, so the schedule of any step depends only on the seed,
// the mix, the rate and the duration, never on which steps ran before it.
// Every step is drawn in full before its timed window opens.
func drawStep(seed uint64, m mix, zipf *rng.Zipf, rate, sec float64) step {
	return genStep(rng.Stream(seed, fmt.Sprintf("perfbench-step-%.0f", rate)), zipf, m, rate, sec)
}

// encodeSteps serializes steps in a fixed byte layout: the form the
// same-seed determinism check compares and the fingerprint hashes.
func encodeSteps(steps ...step) []byte {
	var b []byte
	for _, st := range steps {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.Rate))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.Sec))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(st.Ops)))
		for _, o := range st.Ops {
			b = binary.LittleEndian.AppendUint64(b, uint64(o.At))
			b = binary.LittleEndian.AppendUint32(b, uint32(o.Client))
			b = binary.LittleEndian.AppendUint32(b, uint32(o.Item))
			b = append(b, byte(o.Kind))
		}
	}
	return b
}

// fingerprint is a short hash of the encoded steps.
func fingerprint(steps ...step) string {
	sum := sha256.Sum256(encodeSteps(steps...))
	return hex.EncodeToString(sum[:8])
}

// geometric returns start·ratio^i for i = 1..n.
func geometric(start, ratio float64, n int) []float64 {
	out := make([]float64, n)
	r := start
	for i := range out {
		r *= ratio
		out[i] = r
	}
	return out
}
