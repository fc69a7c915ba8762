package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The benchmark runs on virtual CPUs, and the host may withhold them: the
// kernel counts that time as steal. Under steal the figures follow the host,
// not the code (a sweep read 4,249 sim-s/s under about a tenth of the CPU
// stolen against 6,000–6,800 on a quiet host), so every timed stretch is
// metered and its steal share printed on standard error beside its figure.
// A run under steal still reports: the medians over its repetitions and
// windows carry it, and the steal lines say when a figure follows the host.

// cpuTimes is the aggregate line of /proc/stat, in clock ticks.
type cpuTimes struct {
	busy  uint64 // user, nice, system, irq, softirq
	steal uint64
}

// readCPUTimes reads the aggregate CPU times. On a system without
// /proc/stat it returns zeros, which meter as no steal.
func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	return parseCPULine(sc.Text())
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq steal ...".
func parseCPULine(line string) cpuTimes {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealShare is the share of the CPU time demanded between a and b that
// the host stole: steal ÷ (busy + steal). Idle time does not count, since a
// halted virtual CPU has nothing to lose.
func stealShare(a, b cpuTimes) float64 {
	steal := float64(b.steal - a.steal)
	busy := float64(b.busy - a.busy)
	if steal+busy == 0 {
		return 0
	}
	return steal / (steal + busy)
}

// stealMeter meters one timed stretch.
type stealMeter struct{ start cpuTimes }

func startSteal() stealMeter { return stealMeter{readCPUTimes()} }

// share is the steal share since the meter started.
func (m stealMeter) share() float64 { return stealShare(m.start, readCPUTimes()) }

// stealNote renders a steal share for a diagnostic line.
func stealNote(share float64) string {
	return fmt.Sprintf("steal %.1f%%", 100*share)
}
