// Package radio models the wireless downlink: log-distance path loss with
// lognormal shadowing, a finite-state Markov (FSMC) Rayleigh fading process
// per client, and an adaptive modulation-and-coding (AMC) table — the "link
// adaptation" of the paper's title.
//
// The model is the standard early-2000s abstraction: per-client average SNR
// set by distance + shadowing; fast fading quantized into K equal-probability
// SNR states whose transition rates follow the Rayleigh level-crossing-rate
// formula; and a rate table indexed by instantaneous SNR. It reproduces the
// two properties the invalidation algorithms care about — the downlink rate
// differs across clients and drifts over time, and broadcast frames are lost
// by clients currently in a fade.
package radio

import (
	"fmt"
	"math"
)

// MCS describes one modulation-and-coding scheme in the link adaptation
// table.
type MCS struct {
	Name          string
	BitsPerSymbol float64 // modulation order: log2(M)
	CodeRate      float64 // FEC rate in (0, 1]
	ThresholdDB   float64 // minimum SNR at which the scheme is selected
	CodingGainDB  float64 // effective SNR improvement from the FEC
}

// Efficiency reports information bits per symbol.
func (m MCS) Efficiency() float64 { return m.BitsPerSymbol * m.CodeRate }

// BitRate reports the information bit rate at the given symbol rate
// (symbols/second).
func (m MCS) BitRate(symbolRate float64) float64 {
	return symbolRate * m.Efficiency()
}

// BER approximates the coded bit error rate at the given SNR using the
// classic M-QAM union-bound fit BER(γ) ≈ 0.2·exp(−1.5·γ/(M−1)) with the
// coding gain applied as an SNR shift. BPSK/QPSK use the same fit with
// M = 4 (exact enough for a system-level simulation).
func (m MCS) BER(snrDB float64) float64 {
	gamma := FromDB(snrDB + m.CodingGainDB)
	mOrder := math.Pow(2, m.BitsPerSymbol)
	if mOrder < 4 {
		mOrder = 4
	}
	ber := 0.2 * math.Exp(-1.5*gamma/(mOrder-1))
	if ber > 0.5 {
		ber = 0.5
	}
	return ber
}

// LogBitSuccess reports log(1 − BER(snrDB)), the natural log of one bit's
// success probability. It lies in [log 0.5, 0] and is −0 when the BER
// underflows to zero.
func (m MCS) LogBitSuccess(snrDB float64) float64 {
	// log1p for numerical stability at tiny BER.
	return math.Log1p(-m.BER(snrDB))
}

// FrameSuccessProb reports the probability that a frame of the given number
// of information bits decodes, assuming independent bit errors:
// (1−BER)^bits, evaluated as exp(bits·LogBitSuccess).
func (m MCS) FrameSuccessProb(snrDB float64, bits int) float64 {
	if bits <= 0 {
		return 1
	}
	return math.Exp(float64(bits) * m.LogBitSuccess(snrDB))
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// ToDB converts a linear power ratio to decibels.
func ToDB(lin float64) float64 { return 10 * math.Log10(lin) }

// AMC is a link adaptation policy over an ordered MCS table.
type AMC struct {
	Table      []MCS
	MarginDB   float64 // backoff applied to instantaneous SNR before lookup
	SymbolRate float64 // symbols/second of the underlying PHY
}

// DefaultAMC returns the 6-level table used throughout the evaluation. The
// thresholds are computed so that each scheme delivers ≤5% PER for 512-byte
// frames at its own switch point (threshold + margin); BPSK's extra coding
// gain reflects its halved spectral efficiency. The rate spread between the
// lowest and the highest scheme is 9×, which is the dynamic range the
// link-aware invalidation scheme exploits.
func DefaultAMC() *AMC {
	return &AMC{
		Table: []MCS{
			{Name: "BPSK-1/2", BitsPerSymbol: 1, CodeRate: 0.5, ThresholdDB: 2, CodingGainDB: 10},
			{Name: "QPSK-1/2", BitsPerSymbol: 2, CodeRate: 0.5, ThresholdDB: 5, CodingGainDB: 7},
			{Name: "QPSK-3/4", BitsPerSymbol: 2, CodeRate: 0.75, ThresholdDB: 7, CodingGainDB: 5},
			{Name: "16QAM-1/2", BitsPerSymbol: 4, CodeRate: 0.5, ThresholdDB: 12, CodingGainDB: 7},
			{Name: "16QAM-3/4", BitsPerSymbol: 4, CodeRate: 0.75, ThresholdDB: 14, CodingGainDB: 5},
			{Name: "64QAM-3/4", BitsPerSymbol: 6, CodeRate: 0.75, ThresholdDB: 21, CodingGainDB: 5},
		},
		MarginDB:   1,
		SymbolRate: 250_000, // 250 ksym/s → 125 kb/s … 1.125 Mb/s
	}
}

// Validate checks that the table is non-empty and sorted by threshold and
// efficiency.
func (a *AMC) Validate() error {
	if len(a.Table) == 0 {
		return fmt.Errorf("radio: empty AMC table")
	}
	if a.SymbolRate <= 0 {
		return fmt.Errorf("radio: non-positive symbol rate %v", a.SymbolRate)
	}
	for i, m := range a.Table {
		if m.CodeRate <= 0 || m.CodeRate > 1 || m.BitsPerSymbol <= 0 {
			return fmt.Errorf("radio: MCS %q malformed", m.Name)
		}
		if i > 0 {
			prev := a.Table[i-1]
			if m.ThresholdDB <= prev.ThresholdDB {
				return fmt.Errorf("radio: MCS thresholds not increasing at %q", m.Name)
			}
			if m.Efficiency() <= prev.Efficiency() {
				return fmt.Errorf("radio: MCS efficiency not increasing at %q", m.Name)
			}
		}
	}
	return nil
}

// Select returns the index of the fastest MCS whose threshold is satisfied
// by snrDB − MarginDB. ok is false when even the most robust scheme's
// threshold is not met; callers may still transmit at index 0 but should
// expect elevated loss.
func (a *AMC) Select(snrDB float64) (idx int, ok bool) {
	eff := snrDB - a.MarginDB
	idx = -1
	for i, m := range a.Table {
		if eff >= m.ThresholdDB {
			idx = i
		} else {
			break
		}
	}
	if idx < 0 {
		return 0, false
	}
	return idx, true
}

// BroadcastSelect returns the fastest MCS index at which at least the given
// fraction of the supplied client SNRs satisfy the selection threshold.
// With an empty snr slice or an unachievable coverage it returns 0 (the most
// robust scheme). This is the rate-selection primitive the link-aware
// invalidation scheme uses for its reports.
func (a *AMC) BroadcastSelect(snrsDB []float64, coverage float64) int {
	if len(snrsDB) == 0 {
		return 0
	}
	if coverage > 1 {
		coverage = 1
	}
	need := int(math.Ceil(coverage * float64(len(snrsDB))))
	if need <= 0 {
		need = 1
	}
	best := 0
	for i := range a.Table {
		covered := 0
		thr := a.Table[i].ThresholdDB + a.MarginDB
		for _, s := range snrsDB {
			if s >= thr {
				covered++
			}
		}
		if covered >= need {
			best = i
		} else {
			break
		}
	}
	return best
}

// Airtime reports the time in seconds to transmit `bits` information bits at
// MCS index idx.
func (a *AMC) Airtime(idx, bits int) float64 {
	if idx < 0 || idx >= len(a.Table) {
		panic(fmt.Sprintf("radio: MCS index %d out of range", idx))
	}
	return float64(bits) / a.Table[idx].BitRate(a.SymbolRate)
}

// MinRate reports the information bit rate of the most robust scheme.
func (a *AMC) MinRate() float64 { return a.Table[0].BitRate(a.SymbolRate) }

// MaxRate reports the information bit rate of the fastest scheme.
func (a *AMC) MaxRate() float64 {
	return a.Table[len(a.Table)-1].BitRate(a.SymbolRate)
}
